package nn

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"milr/internal/prng"
	"milr/internal/tensor"
	"milr/internal/xmaps"
)

// Model is an ordered stack of layers with a fixed input shape. Building
// the model assigns every layer a unique name (conv2d, conv2d_1, bias,
// bias_1, ...), validates the shape chain, and binds the layers that
// need it to the model: conv and dense read its worker count, flatten
// its build-time input shape.
type Model struct {
	layers []Layer
	shapes []tensor.Shape // shapes[i] is the input shape of layer i; shapes[len] is the output.
	// workers is the count SetWorkers last set; atomic because a live
	// model may be retuned while inference and scrubs read it.
	workers atomic.Int64

	// wsFree holds the batched forward pass's idle workspaces (see
	// workspace); it starts empty and fills as ForwardBatch calls return.
	wsMu   sync.Mutex
	wsFree []*workspace
}

// NewModel builds a model from layers for the given input shape.
func NewModel(inShape tensor.Shape, layers ...Layer) (*Model, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: model needs at least one layer")
	}
	m := &Model{layers: layers}
	counts := make(map[string]int)
	cur := inShape.Clone()
	m.shapes = make([]tensor.Shape, 0, len(layers)+1)
	for i, l := range layers {
		switch l.(type) {
		case stackedLayer, inPlaceLayer:
		default:
			return nil, fmt.Errorf("nn: layer %d: %T is not a layer type this package can run", i, l)
		}
		base := typeName(l)
		if n := counts[base]; n == 0 {
			l.SetName(base)
		} else {
			l.SetName(fmt.Sprintf("%s_%d", base, n))
		}
		counts[base]++
		if _, flat := l.(*Flatten); flat && len(cur) == 0 {
			return nil, fmt.Errorf("nn: build %q: empty input shape", l.Name())
		}
		m.shapes = append(m.shapes, cur.Clone())
		next, err := l.OutShape(cur)
		if err != nil {
			return nil, fmt.Errorf("nn: build %q: %w", l.Name(), err)
		}
		cur = next
	}
	m.shapes = append(m.shapes, cur.Clone())
	// Bind the layers only once the whole chain is valid.
	for i, l := range layers {
		switch l := l.(type) {
		case *Conv2D:
			l.workers = &m.workers
		case *Dense:
			l.workers = &m.workers
		case *Flatten:
			l.inShape = m.shapes[i].Clone()
		}
	}
	return m, nil
}

// shapeChain threads an input shape other than the build-time one
// through layers [from, to): element k is layer from+k's input shape,
// the last element the range's output shape. A layer's error names the
// layer and is returned as is.
func (m *Model) shapeChain(from, to int, in tensor.Shape) ([]tensor.Shape, error) {
	shapes := make([]tensor.Shape, 0, to-from+1)
	for _, l := range m.layers[from:to] {
		shapes = append(shapes, in)
		next, err := l.OutShape(in)
		if err != nil {
			return nil, err
		}
		in = next
	}
	return append(shapes, in), nil
}

func typeName(l Layer) string {
	switch l.(type) {
	case *Conv2D:
		return "conv2d"
	case *Dense:
		return "dense"
	case *Bias:
		return "bias"
	case *Activation:
		return "relu"
	case *Pool2D:
		return "max_pool"
	case *Flatten:
		return "flatten"
	default:
		return fmt.Sprintf("%T", l)
	}
}

// Layers returns the layer stack (live; do not reorder).
func (m *Model) Layers() []Layer { return m.layers }

// Layer returns layer i.
func (m *Model) Layer(i int) Layer { return m.layers[i] }

// NumLayers returns the stack depth.
func (m *Model) NumLayers() int { return len(m.layers) }

// InShape returns the model input shape.
func (m *Model) InShape() tensor.Shape { return m.shapes[0].Clone() }

// OutShape returns the model output shape.
func (m *Model) OutShape() tensor.Shape { return m.shapes[len(m.layers)].Clone() }

// LayerInShape returns the build-time input shape of layer i (i may be
// len(layers) to get the output shape of the whole model).
func (m *Model) LayerInShape(i int) tensor.Shape { return m.shapes[i].Clone() }

// ParamCount returns the total number of trainable scalars.
func (m *Model) ParamCount() int {
	var n int
	for _, l := range m.layers {
		if p, ok := l.(Parameterized); ok {
			n += p.ParamCount()
		}
	}
	return n
}

// Forward runs normal inference through the whole stack: ForwardBatch
// on a batch of one, in a workspace from the model's free list.
func (m *Model) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	return forwardOne(m, x)
}

// RecoveryForward runs the MILR deterministic pass through the whole
// stack (activations linearized).
func (m *Model) RecoveryForward(x *tensor.Tensor) (*tensor.Tensor, error) {
	return m.ForwardRange(0, len(m.layers), x, true)
}

// ForwardRange runs layers [from, to) on x: the stacked pass
// ForwardBatch runs, over a range, on a batch of one, in a workspace
// from the model's free list; the result is a tensor the caller owns.
// With recovery set it is MILR's deterministic pass, in which ReLU is
// the identity (§IV-D), so golden tensors are algebraic functions of the
// parameters; the MILR engine uses it to move golden tensors from a
// checkpoint boundary to an erroneous layer. An empty range returns x
// itself. A layer's error names the layer and is returned as is.
func (m *Model) ForwardRange(from, to int, x *tensor.Tensor, recovery bool) (*tensor.Tensor, error) {
	if from < 0 || to > len(m.layers) || from > to {
		return nil, fmt.Errorf("nn: forward range [%d,%d) out of bounds for %d layers", from, to, len(m.layers))
	}
	if from == to {
		return x, nil
	}
	var out *tensor.Tensor
	err := m.forwardStacked(context.Background(), from, to, []*tensor.Tensor{x}, recovery, func(stacked []float32, shape tensor.Shape) {
		out = tensor.New(shape...)
		copy(out.Data(), stacked)
	})
	return out, err
}

// Predict returns the argmax class of the final output for input x:
// PredictBatch on a batch of one.
func (m *Model) Predict(x *tensor.Tensor) (int, error) {
	preds, err := m.PredictBatch([]*tensor.Tensor{x})
	if err != nil {
		return 0, err
	}
	return preds[0], nil
}

// InitWeights fills every parameterized layer with scaled uniform values
// (He-style fan-in scaling) from a deterministic stream, so experiments
// are reproducible run-to-run.
func (m *Model) InitWeights(seed uint64) {
	stream := prng.New(seed)
	for _, l := range m.layers {
		p, ok := l.(Parameterized)
		if !ok {
			continue
		}
		var fanIn int
		switch v := l.(type) {
		case *Conv2D:
			fanIn = v.f * v.f * v.z
		case *Dense:
			fanIn = v.n
		default:
			// Bias starts at zero.
			p.Params().Fill(0)
			continue
		}
		scale := float32(1.0)
		if fanIn > 0 {
			scale = float32(1.7 / math.Sqrt(float64(fanIn)))
		}
		d := p.Params().Data()
		for i := range d {
			d[i] = stream.Uniform(-scale, scale)
		}
	}
}

// ParamLayers returns the indices of all parameterized layers in order.
func (m *Model) ParamLayers() []int {
	var out []int
	for i, l := range m.layers {
		if _, ok := l.(Parameterized); ok {
			out = append(out, i)
		}
	}
	return out
}

// Snapshot deep-copies all parameter tensors, keyed by layer index.
// Experiments use it to restore a clean network between fault-injection
// runs.
func (m *Model) Snapshot() map[int]*tensor.Tensor {
	out := make(map[int]*tensor.Tensor)
	for i, l := range m.layers {
		if p, ok := l.(Parameterized); ok {
			out[i] = p.Params().Clone()
		}
	}
	return out
}

// Restore overwrites parameters from a Snapshot. Layers restore in
// ascending index order so a bad snapshot reports the same (lowest)
// offending layer on every run.
func (m *Model) Restore(snap map[int]*tensor.Tensor) error {
	for _, i := range xmaps.SortedKeys(snap) {
		t := snap[i]
		if i < 0 || i >= len(m.layers) {
			return fmt.Errorf("nn: restore index %d out of range", i)
		}
		p, ok := m.layers[i].(Parameterized)
		if !ok {
			return fmt.Errorf("nn: restore layer %d is not parameterized", i)
		}
		if err := p.SetParams(t); err != nil {
			return err
		}
	}
	return nil
}
