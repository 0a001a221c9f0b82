package nn

import (
	"fmt"

	"milr/internal/prng"
	"milr/internal/tensor"
)

// Flatten reshapes a (H,W,Z) tensor into the (1, H·W·Z) row a dense layer
// consumes. It is information-preserving, so "on a backwards pass the
// data will be reshaped to the original form" (§IV-E-d).
type Flatten struct {
	named
	inShape tensor.Shape
}

var (
	_ Invertible = (*Flatten)(nil)
	_ ShapeAware = (*Flatten)(nil)
)

// NewFlatten creates a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// SetInShape implements ShapeAware; the stored shape is what Invert
// restores.
func (f *Flatten) SetInShape(in tensor.Shape) error {
	if len(in) == 0 {
		return fmt.Errorf("nn: flatten %q got empty input shape", f.name)
	}
	f.inShape = in.Clone()
	return nil
}

// OutShape implements Layer.
func (f *Flatten) OutShape(in tensor.Shape) (tensor.Shape, error) {
	return tensor.Shape{1, in.NumElements()}, nil
}

// Forward implements Layer.
func (f *Flatten) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	return in.Clone().Reshape(1, in.NumElements())
}

// forwardInPlace implements inPlaceLayer: a stacked sample is already
// the row flatten makes of it.
func (f *Flatten) forwardInPlace([]float32) {}

// RecoveryForward implements Layer.
func (f *Flatten) RecoveryForward(in *tensor.Tensor) (*tensor.Tensor, error) {
	return f.Forward(in)
}

// Invert implements Invertible by restoring the build-time input shape.
func (f *Flatten) Invert(out *tensor.Tensor) (*tensor.Tensor, error) {
	if f.inShape == nil {
		return nil, fmt.Errorf("nn: flatten %q cannot invert before model build", f.name)
	}
	if out.NumElements() != f.inShape.NumElements() {
		return nil, fmt.Errorf("nn: flatten %q cannot invert %v to %v", f.name, out.Shape(), f.inShape)
	}
	return out.Clone().Reshape(f.inShape...)
}

// ForwardTrain implements Layer.
func (f *Flatten) ForwardTrain(in *tensor.Tensor) (*tensor.Tensor, Cache, error) {
	out, err := f.Forward(in)
	if err != nil {
		return nil, nil, err
	}
	return out, in.Shape(), nil
}

// Backward implements Layer.
func (f *Flatten) Backward(cache Cache, dout *tensor.Tensor) (*tensor.Tensor, error) {
	shape, ok := cache.(tensor.Shape)
	if !ok {
		return nil, fmt.Errorf("nn: flatten %q got foreign cache %T", f.name, cache)
	}
	return dout.Clone().Reshape(shape...)
}

// Dropout randomly zeroes activations during training and is a no-op at
// inference. The paper files it under layers that "are there for
// training, and just pass through during prediction ... they can be
// essentially ignored" by MILR (§IV-E-d).
type Dropout struct {
	named
	rate   float32
	stream *prng.Stream
}

var _ Invertible = (*Dropout)(nil)

// NewDropout creates a dropout layer that zeroes each activation with the
// given probability during training.
func NewDropout(rate float32, seed uint64) (*Dropout, error) {
	if rate < 0 || rate >= 1 {
		return nil, fmt.Errorf("nn: dropout rate %v outside [0,1)", rate)
	}
	return &Dropout{rate: rate, stream: prng.New(seed)}, nil
}

// Rate returns the drop probability.
func (d *Dropout) Rate() float32 { return d.rate }

// OutShape implements Layer.
func (d *Dropout) OutShape(in tensor.Shape) (tensor.Shape, error) { return in.Clone(), nil }

// Forward implements Layer: identity at inference time.
func (d *Dropout) Forward(in *tensor.Tensor) (*tensor.Tensor, error) { return in.Clone(), nil }

// forwardInPlace implements inPlaceLayer: identity at inference time.
func (d *Dropout) forwardInPlace([]float32) {}

// RecoveryForward implements Layer: identity.
func (d *Dropout) RecoveryForward(in *tensor.Tensor) (*tensor.Tensor, error) { return in.Clone(), nil }

// Invert implements Invertible: identity.
func (d *Dropout) Invert(out *tensor.Tensor) (*tensor.Tensor, error) { return out.Clone(), nil }

// ForwardTrain implements Layer: inverted-dropout masking.
func (d *Dropout) ForwardTrain(in *tensor.Tensor) (*tensor.Tensor, Cache, error) {
	out := in.Clone()
	mask := make([]float32, out.NumElements())
	keep := 1 - d.rate
	od := out.Data()
	for i := range od {
		if d.stream.Float32() < d.rate {
			mask[i] = 0
		} else {
			mask[i] = 1 / keep
		}
		od[i] *= mask[i]
	}
	return out, mask, nil
}

// Backward implements Layer.
func (d *Dropout) Backward(cache Cache, dout *tensor.Tensor) (*tensor.Tensor, error) {
	mask, ok := cache.([]float32)
	if !ok {
		return nil, fmt.Errorf("nn: dropout %q got foreign cache %T", d.name, cache)
	}
	din := dout.Clone()
	dd := din.Data()
	if len(dd) != len(mask) {
		return nil, fmt.Errorf("nn: dropout %q gradient size mismatch %d vs %d", d.name, len(dd), len(mask))
	}
	for i := range dd {
		dd[i] *= mask[i]
	}
	return din, nil
}
