package nn

import (
	"context"
	"fmt"

	"milr/internal/obs"
	"milr/internal/tensor"
)

// Batch-first inference. A batch is a slice of per-sample tensors (all
// the same shape). The model stacks it into one buffer of B·elements
// values and every layer works on the stack: the GEMM layers issue one
// matrix product for the whole batch — one im2col GEMM per convolution,
// one (B×In)·(In×Out) product per dense layer — and the elementwise
// layers run in place. A single-sample Forward — of a conv or dense
// layer, or of the whole Model — is this pass on a batch of one, so
// there is one forward path. Because the GEMM kernel accumulates per
// output element in float64 with a fixed k-ascending order, and an
// elementwise layer computes each value from that value alone, a
// sample's logits do not depend on the batch it is stacked in or the
// worker count; the per-sample materialised-im2col oracle in
// forward_oracle_test.go pins that to the last bit.

// forwardOne is a single-sample Forward as ForwardBatch on a batch of
// one: the GEMM layers' and the Model's.
func forwardOne(l interface {
	ForwardBatch([]*tensor.Tensor) ([]*tensor.Tensor, error)
}, x *tensor.Tensor) (*tensor.Tensor, error) {
	outs, err := l.ForwardBatch([]*tensor.Tensor{x})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// stackedLayer is a layer's inference on a stacked batch: b samples of
// shape in, back to back in x, written to dst, which holds b outputs.
// Scratch comes from ws; nothing derived from the layer's parameters
// may be left in it (see workspace).
type stackedLayer interface {
	forwardStacked(ws *workspace, dst, x []float32, b int, in tensor.Shape) error
}

// inPlaceLayer is an elementwise layer's inference on a stacked batch,
// overwriting x. Each value is computed exactly as Forward computes it.
type inPlaceLayer interface {
	forwardInPlace(x []float32)
}

var (
	_ stackedLayer = (*Conv2D)(nil)
	_ stackedLayer = (*Dense)(nil)
	_ stackedLayer = (*Pool2D)(nil)

	_ inPlaceLayer = (*Bias)(nil)
	_ inPlaceLayer = (*Activation)(nil)
	_ inPlaceLayer = (*Flatten)(nil)
)

// forwardStacked implements stackedLayer: the batch's im2col matrices,
// stacked into one (B·G², F²Z) coefficient matrix, are multiplied with
// the live (F²Z, Y) filter matrix in a single GEMM. The kernel reads
// the unpadded inputs in place, so neither the padded inputs nor the
// matrix are materialised.
func (c *Conv2D) forwardStacked(ws *workspace, dst, x []float32, b int, in tensor.Shape) error {
	g := tensor.Conv{H: in[0], W: in[1], Z: c.z, F: c.f, Stride: c.stride, Pad: c.Pad(), Y: c.y}
	if err := tensor.ConvInto(dst, x, c.w.Data(), b, g, loadWorkers(c.workers), &ws.gemm); err != nil {
		return fmt.Errorf("nn: conv %q: %w", c.name, err)
	}
	return nil
}

// forwardStacked implements stackedLayer: the batch's input rows are
// one (B·M × In) matrix, multiplied with the live parameter matrix in a
// single GEMM.
func (d *Dense) forwardStacked(ws *workspace, dst, x []float32, b int, in tensor.Shape) error {
	if err := tensor.MatMulInto(dst, x, d.w.Data(), b*in[0], d.n, d.p, loadWorkers(d.workers), &ws.gemm); err != nil {
		return fmt.Errorf("nn: dense %q: %w", d.name, err)
	}
	return nil
}

// forwardStacked implements stackedLayer, one sample at a time.
func (p *Pool2D) forwardStacked(_ *workspace, dst, x []float32, b int, in tensor.Shape) error {
	ne, oe := in.NumElements(), len(dst)/b
	for s := 0; s < b; s++ {
		p.reduce(dst[s*oe:(s+1)*oe], x[s*ne:(s+1)*ne], in[0], in[1], in[2], nil)
	}
	return nil
}

// runStacked is a GEMM layer's ForwardBatch outside a model: it stacks
// ins (b samples of shape in) in a workspace of its own, runs the layer
// and returns the stacked output.
func runStacked(l stackedLayer, ins []*tensor.Tensor, b int, in, out tensor.Shape) ([]float32, error) {
	var ws workspace
	x := stackBatch(&ws.act[0], ins, b*in.NumElements())
	dst := tensor.Grow(&ws.act[1], b*out.NumElements())
	return dst, l.forwardStacked(&ws, dst, x, b, in)
}

// stackBatch copies the samples, n values in all, back to back into buf.
func stackBatch(buf *[]float32, xs []*tensor.Tensor, n int) []float32 {
	stacked := tensor.Grow(buf, n)
	off := 0
	for _, x := range xs {
		off += copy(stacked[off:], x.Data())
	}
	return stacked
}

// unstack copies consecutive runs of stacked, one per shape, into
// caller-owned tensors.
func unstack(stacked []float32, n int, shape func(i int) tensor.Shape) []*tensor.Tensor {
	outs := make([]*tensor.Tensor, n)
	off := 0
	for i := range outs {
		outs[i] = tensor.New(shape(i)...)
		off += copy(outs[i].Data(), stacked[off:])
	}
	return outs
}

// ForwardBatch runs normal inference on every sample at once, in one
// GEMM for the whole batch (see forwardStacked). The result is
// element-wise bit-identical to calling Forward per sample.
func (c *Conv2D) ForwardBatch(ins []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(ins) == 0 {
		return nil, fmt.Errorf("nn: conv %q: empty batch", c.name)
	}
	in := ins[0].Shape()
	outShape, err := c.OutShape(in)
	if err != nil {
		return nil, err
	}
	if err := sameShapes(ins, in); err != nil {
		return nil, fmt.Errorf("nn: conv %q: %w", c.name, err)
	}
	flat, err := runStacked(c, ins, len(ins), in, outShape)
	if err != nil {
		return nil, err
	}
	return unstack(flat, len(ins), func(int) tensor.Shape { return outShape }), nil
}

// ForwardBatch runs normal inference on every sample at once, in one
// GEMM for the whole batch (see forwardStacked). Samples may differ in
// their row counts.
func (d *Dense) ForwardBatch(ins []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(ins) == 0 {
		return nil, fmt.Errorf("nn: dense %q: empty batch", d.name)
	}
	rows := 0
	for _, in := range ins {
		if _, err := d.OutShape(in.Shape()); err != nil {
			return nil, err
		}
		rows += in.Dim(0)
	}
	flat, err := runStacked(d, ins, 1, tensor.Shape{rows, d.n}, tensor.Shape{rows, d.p})
	if err != nil {
		return nil, err
	}
	return unstack(flat, len(ins), func(i int) tensor.Shape { return tensor.Shape{ins[i].Dim(0), d.p} }), nil
}

// hasShape is x.Shape().Equal(want) without the copy Shape makes.
func hasShape(x *tensor.Tensor, want tensor.Shape) bool {
	same := x.Rank() == len(want)
	for i := 0; same && i < len(want); i++ {
		same = x.Dim(i) == want[i]
	}
	return same
}

// sameShapes reports the first sample whose shape is not want.
func sameShapes(xs []*tensor.Tensor, want tensor.Shape) error {
	for b, x := range xs {
		if !hasShape(x, want) {
			return fmt.Errorf("batch sample %d has shape %v, sample 0 has %v", b, x.Shape(), want)
		}
	}
	return nil
}

// ForwardBatch runs normal inference on a batch of same-shaped inputs.
// GEMM layers (conv, dense) consume the whole batch in one stacked
// matrix product; every other layer runs over the stack, in place where
// it is elementwise. The outputs are caller-owned and bit-identical to
// per-sample Forward calls in the input order.
func (m *Model) ForwardBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	return m.ForwardBatchContext(context.Background(), xs)
}

// ForwardBatchContext is ForwardBatch with observability: when ctx
// carries an obs.Tracer, every GEMM layer's stacked product is recorded
// as a tensor.gemm span (layer name, index, batch size). The numeric
// path is identical to ForwardBatch — the context is consulted only for
// tracing, never for cancellation, so a batch always completes whole.
func (m *Model) ForwardBatchContext(ctx context.Context, xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	var outs []*tensor.Tensor
	err := m.forwardStacked(ctx, 0, len(m.layers), xs, false, func(stacked []float32, out tensor.Shape) {
		outs = unstack(stacked, len(xs), func(int) tensor.Shape { return out })
	})
	return outs, err
}

// forwardStacked runs layers [from, to) over the stacked batch in a
// workspace checked out for the call and hands the stacked outputs
// (len(xs) samples of shape out) to use before the workspace goes back:
// stacked is only valid inside use. It is the one inference loop:
// serving runs it over the whole stack, and MILR's recovery pass
// (recovery set) over a range, with ReLU the identity (§IV-D), skipped
// rather than copied because the stack is already the workspace's own
// copy of the inputs. In steady state the pass allocates nothing that
// grows with the layer sizes. A layer's error names the layer and is
// returned as is.
func (m *Model) forwardStacked(ctx context.Context, from, to int, xs []*tensor.Tensor, recovery bool, use func(stacked []float32, out tensor.Shape)) error {
	if len(xs) == 0 {
		return fmt.Errorf("nn: empty batch")
	}
	shapes := m.shapes[from : to+1]
	if !hasShape(xs[0], shapes[0]) {
		// Not the build-time shape: layers such as convolution accept
		// other extents, so re-derive the chain for this call.
		var err error
		if shapes, err = m.shapeChain(from, to, xs[0].Shape()); err != nil {
			return err
		}
	}
	if err := sameShapes(xs, shapes[0]); err != nil {
		return fmt.Errorf("nn: %w", err)
	}
	ws := m.checkout()
	defer m.checkin(ws)

	b, side := len(xs), 0
	cur := stackBatch(&ws.act[side], xs, b*shapes[0].NumElements())
	for k, l := range m.layers[from:to] {
		i := from + k
		switch l := l.(type) {
		case inPlaceLayer:
			if _, relu := l.(*Activation); !(recovery && relu) {
				l.forwardInPlace(cur)
			}
		case stackedLayer:
			var sp *obs.Span
			switch l.(type) {
			case *Conv2D, *Dense:
				_, sp = obs.Start(ctx, "tensor.gemm")
				sp.SetAttr("layer", m.layers[i].Name())
				sp.SetInt("index", i)
				sp.SetInt("batch", b)
			}
			dst := tensor.Grow(&ws.act[1-side], b*shapes[k+1].NumElements())
			err := l.forwardStacked(ws, dst, cur, b, shapes[k])
			sp.End()
			if err != nil {
				return err
			}
			cur, side = dst, 1-side
		default:
			return fmt.Errorf("nn: layer %d (%s): %T has no batched form", i, l.Name(), l)
		}
	}
	use(cur, shapes[to-from])
	return nil
}

// PredictBatch returns the argmax class of every sample in the batch,
// computed through the batched forward path.
func (m *Model) PredictBatch(xs []*tensor.Tensor) ([]int, error) {
	return m.PredictBatchContext(context.Background(), xs)
}

// PredictBatchContext is PredictBatch through ForwardBatchContext: the
// span-traced batched forward path. See ForwardBatchContext for the
// tracing-only context contract.
func (m *Model) PredictBatchContext(ctx context.Context, xs []*tensor.Tensor) ([]int, error) {
	var preds []int
	err := m.forwardStacked(ctx, 0, len(m.layers), xs, false, func(stacked []float32, out tensor.Shape) {
		preds = make([]int, len(xs))
		ne := out.NumElements()
		for i := range preds {
			preds[i] = tensor.ArgMax(stacked[i*ne : (i+1)*ne])
		}
	})
	return preds, err
}

// DefaultEvalBatch is the batch size Evaluate stacks per GEMM. Large
// enough to amortize kernel dispatch and feed the worker pool, small
// enough that the stacked im2col matrices of the CIFAR-sized networks
// stay within tens of megabytes.
const DefaultEvalBatch = 8

// EvaluateBatch returns classification accuracy on samples, running
// inference through the batched forward path in chunks of batch
// samples (batch <= 1 clamps to single-sample batches — still the
// batched code path, just with B=1). Accuracy is identical to
// per-sample evaluation at every batch size because the batched
// forward is bit-identical to the per-sample one.
func EvaluateBatch(m *Model, samples []Sample, batch int) (float64, error) {
	return EvaluateBatchContext(context.Background(), m, samples, batch)
}

// EvaluateBatchContext is EvaluateBatch with cancellation: the context
// is checked between chunks, so long evaluations over large test sets
// return promptly once ctx is done.
func EvaluateBatchContext(ctx context.Context, m *Model, samples []Sample, batch int) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("nn: no evaluation samples")
	}
	if batch < 1 {
		batch = 1
	}
	var correct int
	xs := make([]*tensor.Tensor, 0, batch)
	for start := 0; start < len(samples); start += batch {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		end := start + batch
		if end > len(samples) {
			end = len(samples)
		}
		xs = xs[:0]
		for _, s := range samples[start:end] {
			xs = append(xs, s.X)
		}
		preds, err := m.PredictBatch(xs)
		if err != nil {
			return 0, err
		}
		for i, p := range preds {
			if p == samples[start+i].Label {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(samples)), nil
}
