package nn

import (
	"fmt"

	"milr/internal/tensor"
)

// Bias adds a 1-D parameter vector to its input: Input + Parameters =
// Output (paper Eq. 5). The broadcast rule depends on the input rank,
// exactly as the paper describes (§IV-E):
//
//   - rank-3 (H,W,C) inputs (after a convolution): b[c] is added to every
//     spatial position of channel c;
//   - rank-2 (M,P) inputs (after a dense layer): b[j] is added to every
//     row of column j.
type Bias struct {
	named
	sgdParam

	c int
}

var (
	_ Parameterized = (*Bias)(nil)
	_ Invertible    = (*Bias)(nil)
)

// NewBias creates a bias layer with c parameters.
func NewBias(c int) (*Bias, error) {
	if c <= 0 {
		return nil, fmt.Errorf("nn: invalid bias width %d", c)
	}
	b := &Bias{c: c}
	b.sgdParam = newSGDParam(tensor.New(c))
	return b, nil
}

// Width returns the parameter count.
func (b *Bias) Width() int { return b.c }

// OutShape implements Layer.
func (b *Bias) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if err := b.check(in); err != nil {
		return nil, err
	}
	return in.Clone(), nil
}

func (b *Bias) check(in tensor.Shape) error {
	switch len(in) {
	case 2, 3:
		if in[len(in)-1] != b.c {
			return fmt.Errorf("nn: bias %q wants trailing dim %d, got %v", b.name, b.c, in)
		}
		return nil
	default:
		return fmt.Errorf("nn: bias %q wants rank-2 or rank-3 input, got %v", b.name, in)
	}
}

// Forward implements Layer.
func (b *Bias) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	if err := b.check(in.Shape()); err != nil {
		return nil, err
	}
	out := in.Clone()
	b.addInto(out.Data(), 1)
	return out, nil
}

// addInto adds sign·parameters to every channel row of d: the trailing
// dimension is the channel, so d is a run of rows of b.c values.
func (b *Bias) addInto(d []float32, sign float32) {
	bd := b.w.Data()
	for ; len(d) >= len(bd); d = d[len(bd):] {
		for j, bv := range bd {
			d[j] += sign * bv
		}
	}
}

// forwardInPlace implements inPlaceLayer.
func (b *Bias) forwardInPlace(x []float32) { b.addInto(x, 1) }

// Invert implements Invertible: input = output − parameters. "The
// subtraction from the parameters from the Output yields the input.
// Making a backwards pass very fast and efficient" (§IV-E-a).
func (b *Bias) Invert(out *tensor.Tensor) (*tensor.Tensor, error) {
	if err := b.check(out.Shape()); err != nil {
		return nil, err
	}
	in := out.Clone()
	b.addInto(in.Data(), -1)
	return in, nil
}

// ForwardTrain implements Layer.
func (b *Bias) ForwardTrain(in *tensor.Tensor) (*tensor.Tensor, Cache, error) {
	out, err := b.Forward(in)
	if err != nil {
		return nil, nil, err
	}
	return out, nil, nil
}

// Backward implements Layer: db += column/channel sums of dout, dX = dout.
func (b *Bias) Backward(_ Cache, dout *tensor.Tensor) (*tensor.Tensor, error) {
	if err := b.check(dout.Shape()); err != nil {
		return nil, err
	}
	gd := b.grad.Data()
	dd := dout.Data()
	for i, v := range dd {
		gd[i%b.c] += v
	}
	return dout.Clone(), nil
}
