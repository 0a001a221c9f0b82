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

// Backward implements Layer: dB += Aᵀ·dC, dA = dC·Bᵀ.
func (d *Dense) Backward(cache Cache, dout *tensor.Tensor) (*tensor.Tensor, error) {
	in, ok := cache.(*tensor.Tensor)
	if !ok {
		return nil, fmt.Errorf("nn: dense %q got foreign cache %T", d.name, cache)
	}
	inT, err := tensor.Transpose(in)
	if err != nil {
		return nil, err
	}
	dw, err := tensor.MatMul(inT, dout)
	if err != nil {
		return nil, err
	}
	if err := d.grad.Add(dw); err != nil {
		return nil, err
	}
	wT, err := tensor.Transpose(d.w)
	if err != nil {
		return nil, err
	}
	return tensor.MatMul(dout, wT)
}
