package nn

import (
	"fmt"

	"milr/internal/tensor"
)

// Cache carries per-layer state from ForwardTrain to Backward.
type Cache interface{}

// Layer is the common interface of all network layers.
type Layer interface {
	// Name returns the unique name the model assigned to this layer.
	Name() string
	// SetName is called once by the model during construction.
	SetName(name string)
	// OutShape computes the output shape for a given input shape.
	OutShape(in tensor.Shape) (tensor.Shape, error)
	// Forward runs normal inference on a single sample.
	Forward(in *tensor.Tensor) (*tensor.Tensor, error)
	// ForwardTrain runs inference in training mode, returning whatever
	// cache Backward needs.
	ForwardTrain(in *tensor.Tensor) (*tensor.Tensor, Cache, error)
	// Backward consumes the cache and the loss gradient w.r.t. the
	// output, accumulates parameter gradients internally, and returns
	// the gradient w.r.t. the input.
	Backward(cache Cache, dout *tensor.Tensor) (*tensor.Tensor, error)
}

// Parameterized is implemented by layers that own trainable parameters
// (convolution, dense, bias). MILR's error detection and recovery operate
// exclusively on these.
type Parameterized interface {
	Layer
	// Params returns the live parameter tensor. Mutating it mutates the
	// layer; this is the fault-injection and recovery surface.
	Params() *tensor.Tensor
	// SetParams overwrites the parameters with a tensor of equal size.
	SetParams(p *tensor.Tensor) error
	// ParamCount returns the number of trainable scalars.
	ParamCount() int
	// GradStep applies the accumulated gradient with SGD+momentum and
	// clears it.
	GradStep(lr, momentum float32)
}

// Invertible is implemented by layers whose input can be recomputed from
// their output with no side information (bias, ReLU under recovery
// semantics, flatten). Convolution and dense layers are only
// conditionally invertible and are inverted by the MILR engine itself,
// which owns the dummy data they may need.
type Invertible interface {
	Layer
	// Invert computes the layer input that produced out under recovery
	// semantics.
	Invert(out *tensor.Tensor) (*tensor.Tensor, error)
}

// named provides the Name/SetName plumbing shared by all layers.
type named struct {
	name string
}

func (n *named) Name() string        { return n.name }
func (n *named) SetName(name string) { n.name = name }

// sgdParam bundles a parameter tensor with its gradient and momentum
// buffers and implements the shared half of Parameterized.
type sgdParam struct {
	w    *tensor.Tensor
	grad *tensor.Tensor
	vel  *tensor.Tensor
}

func newSGDParam(w *tensor.Tensor) sgdParam {
	return sgdParam{
		w:    w,
		grad: tensor.New(w.Shape()...),
		vel:  tensor.New(w.Shape()...),
	}
}

func (p *sgdParam) Params() *tensor.Tensor { return p.w }

func (p *sgdParam) SetParams(w *tensor.Tensor) error {
	if w.NumElements() != p.w.NumElements() {
		return fmt.Errorf("nn: SetParams size mismatch: %d vs %d", w.NumElements(), p.w.NumElements())
	}
	return p.w.CopyFrom(w)
}

func (p *sgdParam) ParamCount() int { return p.w.NumElements() }

func (p *sgdParam) GradStep(lr, momentum float32) {
	wd, gd, vd := p.w.Data(), p.grad.Data(), p.vel.Data()
	for i := range wd {
		vd[i] = momentum*vd[i] - lr*gd[i]
		wd[i] += vd[i]
		gd[i] = 0
	}
}
