package nn

import (
	"fmt"
	"sync/atomic"

	"milr/internal/tensor"
)

// Dense is a fully-connected layer: A(M,N) · B(N,P) = C(M,P) where A is
// the input, B the parameters and C the output (paper §IV-A). Bias and
// activation are separate layers.
type Dense struct {
	named
	sgdParam

	n, p int
	// workers is the count of the model the layer was last built into
	// (see Model.SetWorkers); nil outside a model.
	workers *atomic.Int64
}

var _ Parameterized = (*Dense)(nil)

// NewDense creates a dense layer mapping N inputs to P outputs.
func NewDense(n, p int) (*Dense, error) {
	if n <= 0 || p <= 0 {
		return nil, fmt.Errorf("nn: invalid dense config n=%d p=%d", n, p)
	}
	d := &Dense{n: n, p: p}
	d.sgdParam = newSGDParam(tensor.New(n, p))
	return d, nil
}

// In returns N, the input width.
func (d *Dense) In() int { return d.n }

// Out returns P, the output width.
func (d *Dense) Out() int { return d.p }

// OutShape implements Layer.
func (d *Dense) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if len(in) != 2 || in[1] != d.n {
		return nil, fmt.Errorf("nn: dense %q wants (M,%d) input, got %v", d.name, d.n, in)
	}
	return tensor.Shape{in[0], d.p}, nil
}

// Forward implements Layer: ForwardBatch on a batch of one. With its
// model's worker count set (Model.SetWorkers) the GEMM runs on a bounded
// pool — partitioned by output columns for the single-row inference
// shape — with bit-identical results.
func (d *Dense) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	return forwardOne(d, in)
}

// ForwardTrain implements Layer.
func (d *Dense) ForwardTrain(in *tensor.Tensor) (*tensor.Tensor, Cache, error) {
	out, err := d.Forward(in)
	if err != nil {
		return nil, nil, err
	}
	return out, in, nil
}

// Backward implements Layer: dB += Aᵀ·dC, dA = dC·Bᵀ. Neither product
// is formed as a GEMM of a transposed copy: Aᵀ·dC is summed straight
// into the gradient, and dA is row dots of dC against B's rows. Each
// element is still the GEMM's (float64 from +0, k ascending, terms
// whose left factor is ±0 skipped, narrowed to float32 once), so the
// gradient and dA are bit for bit those of
// tensor.MatMul(tensor.Transpose(A), dC) and
// tensor.MatMul(dC, tensor.Transpose(B)).
func (d *Dense) Backward(cache Cache, dout *tensor.Tensor) (*tensor.Tensor, error) {
	in, ok := cache.(*tensor.Tensor)
	if !ok {
		return nil, fmt.Errorf("nn: dense %q got foreign cache %T", d.name, cache)
	}
	n, p := d.n, d.p
	if in.Rank() != 2 || in.Dim(1) != n || dout.Rank() != 2 || dout.Dim(0) != in.Dim(0) || dout.Dim(1) != p {
		return nil, fmt.Errorf("nn: dense %q backward got input %v and output gradient %v, want (M,%d) and (M,%d)",
			d.name, in.Shape(), dout.Shape(), n, p)
	}
	m := in.Dim(0)
	x, dy, w, g := in.Data(), dout.Data(), d.w.Data(), d.grad.Data()
	// dB += Aᵀ·dC: row i sums A[r][i]·dC[r][:] over r ascending.
	acc := make([]float64, p)
	for i := 0; i < n; i++ {
		clear(acc)
		for r := 0; r < m; r++ {
			a := float64(x[r*n+i])
			if a == 0 {
				continue
			}
			for j, v := range dy[r*p : (r+1)*p] {
				acc[j] += a * float64(v)
			}
		}
		for j, v := range acc {
			g[i*p+j] += float32(v)
		}
	}
	// dA = dC·Bᵀ: dA[r][i] is dC's row r dotted with B's row i, over
	// dC's non-zeros in ascending order.
	dIn := tensor.New(m, n)
	o := dIn.Data()
	nzIdx, nzVal := make([]int, 0, p), make([]float64, 0, p)
	for r := 0; r < m; r++ {
		nzIdx, nzVal = nzIdx[:0], nzVal[:0]
		for j, v := range dy[r*p : (r+1)*p] {
			if v != 0 {
				nzIdx, nzVal = append(nzIdx, j), append(nzVal, float64(v))
			}
		}
		for i := 0; i < n; i++ {
			wi := w[i*p : (i+1)*p]
			var s float64
			for t, j := range nzIdx {
				s += nzVal[t] * float64(wi[j])
			}
			o[r*n+i] = float32(s)
		}
	}
	return dIn, nil
}
