package nn

import (
	"fmt"
	"math"

	"milr/internal/tensor"
)

// Activation is the ReLU non-linearity, max(0, x), the paper's
// activation (§IV-D). During MILR's initialization, detection, and
// recovery phases it is treated as a linear (identity) function:
// Model.ForwardRange in recovery mode passes tensors through unchanged,
// and Invert does the same, "allowing forward and backward passes
// through the layer without any changes to the tensor passing through".
type Activation struct {
	named
}

var _ Invertible = (*Activation)(nil)

// NewReLU creates a ReLU activation layer.
func NewReLU() *Activation { return &Activation{} }

// OutShape implements Layer.
func (a *Activation) OutShape(in tensor.Shape) (tensor.Shape, error) {
	return in.Clone(), nil
}

// Forward implements Layer.
func (a *Activation) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	out := in.Clone()
	a.forwardInPlace(out.Data())
	return out, nil
}

// forwardInPlace implements inPlaceLayer: x[i] = 0 where x[i] < 0,
// computed on the bits without a branch, which would mispredict on
// about half of a layer's activations. The mask is all ones exactly
// where the magnitude bits are non-zero (not ±0), at most those of Inf
// (not NaN), and the sign is set: negative finite values and −Inf
// become +0, and ±0, positive values and NaN of either sign stay.
func (a *Activation) forwardInPlace(x []float32) {
	for i, v := range x {
		u := math.Float32bits(v)
		m := int64(u & 0x7fffffff)
		mask := uint32(-m >> 63 & ((m - 0x7f800001) >> 63) & -int64(u>>31))
		x[i] = math.Float32frombits(u &^ mask)
	}
}

// Invert implements Invertible: identity under recovery semantics.
func (a *Activation) Invert(out *tensor.Tensor) (*tensor.Tensor, error) {
	return out.Clone(), nil
}

// ForwardTrain implements Layer.
func (a *Activation) ForwardTrain(in *tensor.Tensor) (*tensor.Tensor, Cache, error) {
	out, err := a.Forward(in)
	if err != nil {
		return nil, nil, err
	}
	return out, in, nil
}

// Backward implements Layer. The gradient is multiplied by ReLU's 0/1
// derivative rather than set to 0, so behind a negative input a negative
// gradient becomes −0 and an infinite or NaN one becomes NaN.
func (a *Activation) Backward(cache Cache, dout *tensor.Tensor) (*tensor.Tensor, error) {
	in, ok := cache.(*tensor.Tensor)
	if !ok {
		return nil, fmt.Errorf("nn: activation %q got foreign cache %T", a.name, cache)
	}
	din := dout.Clone()
	dd, id := din.Data(), in.Data()
	if len(dd) != len(id) {
		return nil, fmt.Errorf("nn: activation %q gradient size mismatch %d vs %d", a.name, len(dd), len(id))
	}
	for i, x := range id {
		var d float32 = 1
		if x < 0 {
			d = 0
		}
		dd[i] *= d
	}
	return din, nil
}
