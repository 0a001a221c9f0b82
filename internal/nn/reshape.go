package nn

import (
	"fmt"

	"milr/internal/tensor"
)

// Flatten reshapes a (H,W,Z) tensor into the (1, H·W·Z) row a dense layer
// consumes. It is information-preserving, so "on a backwards pass the
// data will be reshaped to the original form" (§IV-E-d).
type Flatten struct {
	named
	// inShape is the build-time input shape Invert restores; NewModel
	// sets it.
	inShape tensor.Shape
}

var _ Invertible = (*Flatten)(nil)

// NewFlatten creates a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

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
