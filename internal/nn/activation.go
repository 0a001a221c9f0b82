package nn

import (
	"fmt"
	"math"

	"milr/internal/tensor"
)

// ActivationKind selects the non-linearity of an Activation layer.
type ActivationKind int

const (
	// ReLU is max(0, x), the paper's primary activation (§IV-D).
	ReLU ActivationKind = iota + 1
	// Identity passes values through unchanged.
	Identity
	// LeakyReLU is x for x ≥ 0 and 0.01·x otherwise.
	LeakyReLU
	// Tanh is the hyperbolic tangent.
	Tanh
)

// String implements fmt.Stringer.
func (k ActivationKind) String() string {
	switch k {
	case ReLU:
		return "relu"
	case Identity:
		return "identity"
	case LeakyReLU:
		return "leaky_relu"
	case Tanh:
		return "tanh"
	default:
		return fmt.Sprintf("ActivationKind(%d)", int(k))
	}
}

// Activation is a parameter-free non-linearity. Following the paper
// (§IV-D), during MILR's initialization, detection, and recovery phases
// every activation is treated as a linear (identity) function:
// RecoveryForward passes tensors through unchanged, and Invert does the
// same, "allowing forward and backward passes through the layer without
// any changes to the tensor passing through".
type Activation struct {
	named
	kind ActivationKind
}

var _ Invertible = (*Activation)(nil)

// NewActivation creates an activation layer of the given kind.
func NewActivation(kind ActivationKind) (*Activation, error) {
	switch kind {
	case ReLU, Identity, LeakyReLU, Tanh:
		return &Activation{kind: kind}, nil
	default:
		return nil, fmt.Errorf("nn: unknown activation kind %d", kind)
	}
}

// NewReLU is shorthand for the paper's default activation.
func NewReLU() *Activation {
	a, err := NewActivation(ReLU)
	if err != nil {
		panic(err) // unreachable
	}
	return a
}

// Kind returns the configured non-linearity.
func (a *Activation) Kind() ActivationKind { return a.kind }

// OutShape implements Layer.
func (a *Activation) OutShape(in tensor.Shape) (tensor.Shape, error) {
	return in.Clone(), nil
}

func (a *Activation) apply(x float32) float32 {
	switch a.kind {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case LeakyReLU:
		if x < 0 {
			return 0.01 * x
		}
		return x
	case Tanh:
		return float32(math.Tanh(float64(x)))
	default:
		return x
	}
}

func (a *Activation) derivative(x float32) float32 {
	switch a.kind {
	case ReLU:
		if x < 0 {
			return 0
		}
		return 1
	case LeakyReLU:
		if x < 0 {
			return 0.01
		}
		return 1
	case Tanh:
		t := math.Tanh(float64(x))
		return float32(1 - t*t)
	default:
		return 1
	}
}

// Forward implements Layer.
func (a *Activation) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	out := in.Clone()
	a.forwardInPlace(out.Data())
	return out, nil
}

// forwardInPlace implements inPlaceLayer. ReLU, on every conv and dense
// block's path, gets a direct loop; the rest go through apply.
func (a *Activation) forwardInPlace(x []float32) {
	switch a.kind {
	case ReLU:
		for i, v := range x {
			if v < 0 {
				x[i] = 0
			}
		}
	case Identity:
	default:
		for i, v := range x {
			x[i] = a.apply(v)
		}
	}
}

// RecoveryForward implements Layer: identity, per the paper's linearized
// treatment of activations during MILR phases.
func (a *Activation) RecoveryForward(in *tensor.Tensor) (*tensor.Tensor, error) {
	return in.Clone(), nil
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

// Backward implements Layer.
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
	for i := range dd {
		dd[i] *= a.derivative(id[i])
	}
	return din, nil
}
