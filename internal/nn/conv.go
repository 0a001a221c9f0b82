package nn

import (
	"fmt"
	"sync/atomic"

	"milr/internal/tensor"
)

// Padding selects the convolution padding policy.
type Padding int

const (
	// Valid applies no padding: G = (M − F)/S + 1.
	Valid Padding = iota + 1
	// Same zero-pads so the spatial extent is preserved (stride 1, odd
	// filter sizes): G = M.
	Same
)

// String implements fmt.Stringer.
func (p Padding) String() string {
	switch p {
	case Valid:
		return "valid"
	case Same:
		return "same"
	default:
		return fmt.Sprintf("Padding(%d)", int(p))
	}
}

// Conv2D is a 2-D convolution over (H,W,Z) inputs with Y filters of shape
// (F,F,Z), producing (G,G,Y) outputs — the paper's Equation 4. Bias and
// activation are separate layers, mirroring the paper's decomposition.
type Conv2D struct {
	named
	sgdParam

	f, z, y int
	stride  int
	padding Padding
	// workers is the count of the model the layer was last built into
	// (see Model.SetWorkers); nil outside a model.
	workers *atomic.Int64
}

var _ Parameterized = (*Conv2D)(nil)

// NewConv2D creates a convolution layer. Weights start at zero; use an
// initializer (see init.go) or training to populate them.
func NewConv2D(f, z, y, stride int, padding Padding) (*Conv2D, error) {
	if f <= 0 || z <= 0 || y <= 0 || stride <= 0 {
		return nil, fmt.Errorf("nn: invalid conv config f=%d z=%d y=%d stride=%d", f, z, y, stride)
	}
	if padding == Same && (stride != 1 || f%2 == 0) {
		return nil, fmt.Errorf("nn: same padding requires stride 1 and odd filter size, got stride=%d f=%d", stride, f)
	}
	if padding != Same && padding != Valid {
		return nil, fmt.Errorf("nn: unknown padding %d", padding)
	}
	c := &Conv2D{f: f, z: z, y: y, stride: stride, padding: padding}
	c.sgdParam = newSGDParam(tensor.New(f, f, z, y))
	return c, nil
}

// FilterSize returns F.
func (c *Conv2D) FilterSize() int { return c.f }

// InChannels returns Z.
func (c *Conv2D) InChannels() int { return c.z }

// Filters returns Y, the filter count.
func (c *Conv2D) Filters() int { return c.y }

// Stride returns S.
func (c *Conv2D) Stride() int { return c.stride }

// Pad returns the zero-padding applied to each spatial side.
func (c *Conv2D) Pad() int {
	if c.padding == Same {
		return (c.f - 1) / 2
	}
	return 0
}

// OutShape implements Layer.
func (c *Conv2D) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("nn: conv %q wants (H,W,Z) input, got %v", c.name, in)
	}
	if in[2] != c.z {
		return nil, fmt.Errorf("nn: conv %q wants %d channels, got %v", c.name, c.z, in)
	}
	gh, ok := tensor.ConvOutputSize(in[0], c.f, c.Pad(), c.stride)
	if !ok {
		return nil, fmt.Errorf("nn: conv %q stride %d does not divide input %v", c.name, c.stride, in)
	}
	gw, _ := tensor.ConvOutputSize(in[1], c.f, c.Pad(), c.stride)
	if gh <= 0 || gw <= 0 {
		return nil, fmt.Errorf("nn: conv %q filter %d too large for input %v", c.name, c.f, in)
	}
	return tensor.Shape{gh, gw, c.y}, nil
}

// weightsMatrix views the (F,F,Z,Y) parameter tensor as the (F²Z, Y)
// matrix that composes with an im2col lowering. The memory layouts align
// exactly, so this is a zero-copy reshape.
func (c *Conv2D) weightsMatrix() *tensor.Tensor {
	m, err := c.w.Reshape(c.f*c.f*c.z, c.y)
	if err != nil {
		// Impossible by construction.
		panic(err)
	}
	return m
}

// Lower returns the im2col coefficient matrix of the (padded) input:
// G² rows, F²Z columns. The MILR engine uses the same lowering to build
// its parameter-recovery system of equations, and ForwardTrain keeps it
// for Backward. Inference never materialises it (see forwardStacked).
func (c *Conv2D) Lower(in *tensor.Tensor) (*tensor.Tensor, error) {
	padded, err := c.padInput(in)
	if err != nil {
		return nil, err
	}
	return tensor.Im2Col(padded, c.f, c.stride)
}

// padInput applies the layer's padding policy. Unpadded layers return
// the input itself — Im2Col only reads it, so the Pad2D clone would be
// a pure copy.
func (c *Conv2D) padInput(in *tensor.Tensor) (*tensor.Tensor, error) {
	p := c.Pad()
	if p == 0 {
		return in, nil
	}
	padded, err := tensor.Pad2D(in, p)
	if err != nil {
		return nil, fmt.Errorf("conv %q: %w", c.name, err)
	}
	return padded, nil
}

// Forward implements Layer: ForwardBatch on a batch of one, so a single
// sample runs the same one-GEMM convolution (on its model's pool) as a
// served batch.
func (c *Conv2D) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	return forwardOne(c, in)
}

// ForwardAt returns the Y outputs at output position (i, j) alone: that
// position's im2col row, with padding read as zeros, times the filter
// matrix in a one-row GEMM. The kernel computes every output element
// the same way whatever the row count (see internal/tensor's gemm.go),
// so each value is bit-identical to Forward's (i, j, k) element at
// 1/G² of the work. The MILR engine does not probe through it: its
// conv probe is a PRNG row times the filter matrix, with no input map
// or position (see internal/core's probe).
func (c *Conv2D) ForwardAt(in *tensor.Tensor, i, j int) ([]float32, error) {
	out, err := c.OutShape(in.Shape())
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= out[0] || j < 0 || j >= out[1] {
		return nil, fmt.Errorf("nn: conv %q position (%d,%d) outside its %dx%d output", c.name, i, j, out[0], out[1])
	}
	h, w, fz, pad := in.Dim(0), in.Dim(1), c.f*c.z, c.Pad()
	x := in.Data()
	row := make([]float32, c.f*fz)
	for f1 := 0; f1 < c.f; f1++ {
		r := i*c.stride + f1 - pad
		if r < 0 || r >= h {
			continue
		}
		for f2 := 0; f2 < c.f; f2++ {
			if col := j*c.stride + f2 - pad; col >= 0 && col < w {
				copy(row[f1*fz+f2*c.z:][:c.z], x[(r*w+col)*c.z:])
			}
		}
	}
	dst := make([]float32, c.y)
	if err := tensor.MatMulInto(dst, row, c.w.Data(), 1, len(row), c.y, 1, nil); err != nil {
		return nil, fmt.Errorf("conv %q: %w", c.name, err)
	}
	return dst, nil
}

type convCache struct {
	cols    *tensor.Tensor
	inShape tensor.Shape
}

// ForwardTrain implements Layer.
func (c *Conv2D) ForwardTrain(in *tensor.Tensor) (*tensor.Tensor, Cache, error) {
	outShape, err := c.OutShape(in.Shape())
	if err != nil {
		return nil, nil, err
	}
	cols, err := c.Lower(in)
	if err != nil {
		return nil, nil, err
	}
	flat, err := tensor.MatMul(cols, c.weightsMatrix())
	if err != nil {
		return nil, nil, err
	}
	out, err := flat.Reshape(outShape...)
	if err != nil {
		return nil, nil, err
	}
	return out, &convCache{cols: cols, inShape: in.Shape()}, nil
}

// Backward implements Layer: dW += colsᵀ·dOut, dX = fold(dOut·Wᵀ).
func (c *Conv2D) Backward(cache Cache, dout *tensor.Tensor) (*tensor.Tensor, error) {
	cc, ok := cache.(*convCache)
	if !ok {
		return nil, fmt.Errorf("nn: conv %q got foreign cache %T", c.name, cache)
	}
	g2 := cc.cols.Dim(0)
	doutFlat, err := dout.Reshape(g2, c.y)
	if err != nil {
		return nil, fmt.Errorf("conv %q backward: %w", c.name, err)
	}
	colsT, err := tensor.Transpose(cc.cols)
	if err != nil {
		return nil, err
	}
	dw, err := tensor.MatMul(colsT, doutFlat)
	if err != nil {
		return nil, err
	}
	if err := c.grad.Add(dw); err != nil {
		return nil, err
	}
	wT, err := tensor.Transpose(c.weightsMatrix())
	if err != nil {
		return nil, err
	}
	dcols, err := tensor.MatMul(doutFlat, wT)
	if err != nil {
		return nil, err
	}
	p := c.Pad()
	h, w, z := cc.inShape[0]+2*p, cc.inShape[1]+2*p, cc.inShape[2]
	dpadded, err := tensor.Col2ImSum(dcols, h, w, z, c.f, c.stride)
	if err != nil {
		return nil, err
	}
	return tensor.Crop2D(dpadded, p)
}
