package nn

import (
	"fmt"

	"milr/internal/tensor"
)

// Affine is a per-channel scale-and-shift layer: out = g[c]·in + b[c].
// It is exactly what a batch-normalization layer reduces to at inference
// time (the running statistics folded into g and b), so supporting it
// extends MILR beyond the paper's four layer types to the batch-norm
// CNNs that dominate modern practice. Parameters are stored as one
// tensor of shape (2, C): row 0 the gains, row 1 the shifts.
//
// Like bias, the broadcast follows the input rank: rank-3 (H,W,C)
// inputs scale per channel, rank-2 (M,C) inputs per column.
type Affine struct {
	named
	sgdParam

	c int
}

var (
	_ Parameterized = (*Affine)(nil)
	_ Invertible    = (*Affine)(nil)
)

// NewAffine creates an affine layer over c channels with identity
// initialization (g = 1, b = 0).
func NewAffine(c int) (*Affine, error) {
	if c <= 0 {
		return nil, fmt.Errorf("nn: invalid affine width %d", c)
	}
	a := &Affine{c: c}
	a.sgdParam = newSGDParam(tensor.New(2, c))
	for i := 0; i < c; i++ {
		a.w.Data()[i] = 1
	}
	return a, nil
}

// Width returns the channel count.
func (a *Affine) Width() int { return a.c }

// Gain returns the live gain slice (length C).
func (a *Affine) Gain() []float32 { return a.w.Data()[:a.c] }

// Shift returns the live shift slice (length C).
func (a *Affine) Shift() []float32 { return a.w.Data()[a.c:] }

func (a *Affine) check(in tensor.Shape) error {
	switch len(in) {
	case 2, 3:
		if in[len(in)-1] != a.c {
			return fmt.Errorf("nn: affine %q wants trailing dim %d, got %v", a.name, a.c, in)
		}
		return nil
	default:
		return fmt.Errorf("nn: affine %q wants rank-2 or rank-3 input, got %v", a.name, in)
	}
}

// OutShape implements Layer.
func (a *Affine) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if err := a.check(in); err != nil {
		return nil, err
	}
	return in.Clone(), nil
}

// Forward implements Layer.
func (a *Affine) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	if err := a.check(in.Shape()); err != nil {
		return nil, err
	}
	out := in.Clone()
	a.forwardInPlace(out.Data())
	return out, nil
}

// forwardInPlace implements inPlaceLayer: the trailing dimension is the
// channel, so x is a run of rows of a.c values.
func (a *Affine) forwardInPlace(x []float32) {
	g, b := a.Gain(), a.Shift()
	for ; len(x) >= len(g); x = x[len(g):] {
		for c, gv := range g {
			x[c] = gv*x[c] + b[c]
		}
	}
}

// RecoveryForward implements Layer; affine is linear, so recovery
// semantics equal inference semantics.
func (a *Affine) RecoveryForward(in *tensor.Tensor) (*tensor.Tensor, error) {
	return a.Forward(in)
}

// Invert implements Invertible: in = (out − b)/g. Zero gains make the
// channel non-invertible.
func (a *Affine) Invert(out *tensor.Tensor) (*tensor.Tensor, error) {
	if err := a.check(out.Shape()); err != nil {
		return nil, err
	}
	g, b := a.Gain(), a.Shift()
	for c, gv := range g {
		if gv == 0 {
			return nil, fmt.Errorf("nn: affine %q channel %d has zero gain; not invertible", a.name, c)
		}
	}
	in := out.Clone()
	d := in.Data()
	for i := range d {
		c := i % a.c
		d[i] = (d[i] - b[c]) / g[c]
	}
	return in, nil
}

// ForwardTrain implements Layer.
func (a *Affine) ForwardTrain(in *tensor.Tensor) (*tensor.Tensor, Cache, error) {
	out, err := a.Forward(in)
	if err != nil {
		return nil, nil, err
	}
	return out, in, nil
}

// Backward implements Layer: dg += Σ dout·in, db += Σ dout, din = dout·g.
func (a *Affine) Backward(cache Cache, dout *tensor.Tensor) (*tensor.Tensor, error) {
	in, ok := cache.(*tensor.Tensor)
	if !ok {
		return nil, fmt.Errorf("nn: affine %q got foreign cache %T", a.name, cache)
	}
	if err := a.check(dout.Shape()); err != nil {
		return nil, err
	}
	gd := a.grad.Data()
	id, dd := in.Data(), dout.Data()
	if len(id) != len(dd) {
		return nil, fmt.Errorf("nn: affine %q gradient size mismatch %d vs %d", a.name, len(id), len(dd))
	}
	g := a.Gain()
	din := dout.Clone()
	od := din.Data()
	for i := range dd {
		c := i % a.c
		gd[c] += dd[i] * id[i] // dL/dg
		gd[a.c+c] += dd[i]     // dL/db
		od[i] = dd[i] * g[c]   // dL/dx
	}
	return din, nil
}
