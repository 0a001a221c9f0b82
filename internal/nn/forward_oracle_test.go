package nn

import (
	"fmt"
	"math"
	"testing"

	"milr/internal/prng"
	"milr/internal/tensor"
)

// The per-sample reference forward, kept as the oracle the one forward
// path (ForwardBatch, of which a single-sample Forward is the batch of
// one) is pinned bit-identical against. A convolution lowers its whole
// input to a materialised im2col matrix and multiplies it with the
// filter matrix; a dense layer multiplies its input with the parameter
// matrix; both on the serial MatMul. Every other layer runs its own
// Forward, or under recovery is the identity if it is a ReLU. It lives in a _test.go file so that no
// caller can select it; the two GEMM-layer bodies are the per-sample
// Forward bodies the package shipped before the fold, unedited but for
// the serial kernels.

// oracleConvForward is the per-sample Conv2D.Forward.
func oracleConvForward(c *Conv2D, in *tensor.Tensor) (*tensor.Tensor, error) {
	outShape, err := c.OutShape(in.Shape())
	if err != nil {
		return nil, err
	}
	padded, err := c.padInput(in)
	if err != nil {
		return nil, err
	}
	cols, err := tensor.Im2Col(padded, c.f, c.stride)
	if err != nil {
		return nil, err
	}
	flat, err := tensor.MatMul(cols, c.weightsMatrix())
	if err != nil {
		return nil, fmt.Errorf("conv %q: %w", c.name, err)
	}
	return flat.Reshape(outShape...)
}

// oracleDenseForward is the per-sample Dense.Forward.
func oracleDenseForward(d *Dense, in *tensor.Tensor) (*tensor.Tensor, error) {
	if _, err := d.OutShape(in.Shape()); err != nil {
		return nil, err
	}
	out, err := tensor.MatMul(in, d.w)
	if err != nil {
		return nil, fmt.Errorf("dense %q: %w", d.name, err)
	}
	return out, nil
}

// oracleLayerForward runs one layer the per-sample way.
func oracleLayerForward(l Layer, in *tensor.Tensor, recovery bool) (*tensor.Tensor, error) {
	switch l := l.(type) {
	case *Conv2D:
		return oracleConvForward(l, in)
	case *Dense:
		return oracleDenseForward(l, in)
	}
	if _, relu := l.(*Activation); recovery && relu {
		return in.Clone(), nil
	}
	return l.Forward(in)
}

// oracleForward is the per-sample Model.Forward (recovery unset) or
// Model.RecoveryForward (recovery set).
func oracleForward(m *Model, x *tensor.Tensor, recovery bool) (*tensor.Tensor, error) {
	cur := x
	for i, l := range m.layers {
		var err error
		if cur, err = oracleLayerForward(l, cur, recovery); err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, l.Name(), err)
		}
	}
	return cur, nil
}

// oraclePredict is the per-sample Model.Predict.
func oraclePredict(m *Model, x *tensor.Tensor) (int, error) {
	out, err := oracleForward(m, x, false)
	if err != nil {
		return 0, err
	}
	return out.ArgMax(), nil
}

// TestGEMMLayerForwardMatchesOracle covers the convolution shapes the
// zoo networks do not use (stride 2, 1×1 and 5×5 filters, Same padding
// on a non-square input) and multi-row dense inputs: Forward and a
// three-sample ForwardBatch equal the oracle to the last bit at every
// worker count.
func TestGEMMLayerForwardMatchesOracle(t *testing.T) {
	mustConv := func(f, z, y, s int, p Padding) Layer {
		c, err := NewConv2D(f, z, y, s, p)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	mustDense := func(n, p int) Layer {
		d, err := NewDense(n, p)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := []struct {
		name  string
		layer Layer
		in    tensor.Shape
	}{
		{"conv 3x3 stride 2", mustConv(3, 2, 4, 2, Valid), tensor.Shape{9, 9, 2}},
		{"conv 1x1", mustConv(1, 3, 5, 1, Valid), tensor.Shape{4, 6, 3}},
		{"conv 5x5 valid", mustConv(5, 1, 3, 1, Valid), tensor.Shape{12, 12, 1}},
		{"conv 3x3 same", mustConv(3, 4, 2, 1, Same), tensor.Shape{5, 7, 4}},
		{"dense one row", mustDense(40, 9), tensor.Shape{1, 40}},
		{"dense three rows", mustDense(17, 6), tensor.Shape{3, 17}},
	}
	for ci, c := range cases {
		p := c.layer.(Parameterized)
		if err := p.SetParams(prng.TensorFor(uint64(ci)+1, 83, p.Params().Shape()...)); err != nil {
			t.Fatal(err)
		}
		xs := make([]*tensor.Tensor, 3)
		want := make([]*tensor.Tensor, len(xs))
		for i := range xs {
			xs[i] = prng.TensorFor(uint64(ci*10+i)+1, 89, c.in...)
			var err error
			if want[i], err = oracleLayerForward(c.layer, xs[i], false); err != nil {
				t.Fatalf("%s oracle: %v", c.name, err)
			}
		}
		m, err := NewModel(c.in, c.layer)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			m.SetWorkers(workers)
			got, err := c.layer.Forward(xs[0])
			if err != nil {
				t.Fatalf("%s workers=%d forward: %v", c.name, workers, err)
			}
			assertIdentical(t, fmt.Sprintf("%s workers=%d forward", c.name, workers), want[0], got)
			batch, err := c.layer.(interface {
				ForwardBatch([]*tensor.Tensor) ([]*tensor.Tensor, error)
			}).ForwardBatch(xs)
			if err != nil {
				t.Fatalf("%s workers=%d batch: %v", c.name, workers, err)
			}
			for i := range xs {
				if !batch[i].Shape().Equal(want[i].Shape()) {
					t.Fatalf("%s sample %d: shape %v, want %v", c.name, i, batch[i].Shape(), want[i].Shape())
				}
				assertIdentical(t, fmt.Sprintf("%s workers=%d sample %d", c.name, workers, i), want[i], batch[i])
			}
		}
	}
}

// TestConvForwardAtMatchesForward pins the one-position conv probe the
// MILR engine detects and verifies with: at every output position of
// valid and same padding, stride 1 and 2, one and several input
// channels, ForwardAt's Y values equal Forward's (i, j, ·) elements to
// the last bit. Maps of G² ≥ 16 put Forward on the packed tile and
// ForwardAt on the streamed row, so the two loop orders are compared.
// The weights carry NaN payloads (a signalling one among them), ±Inf,
// ±0 and subnormals, and the inputs ±0 and subnormals. Each filter
// holds at most one NaN source (a NaN weight, or +Inf and −Inf whose
// sum is one), because where two different NaNs meet the hardware keeps
// its first operand's payload, and that order is the compiler's
// choice, not the kernel's (see the tensor package's gemmCase).
func TestConvForwardAtMatchesForward(t *testing.T) {
	cases := []struct {
		name       string
		f, z, y, s int
		padding    Padding
		h, w       int
	}{
		{"valid stride 1 z=1", 3, 1, 8, 1, Valid, 9, 9},
		{"valid stride 2 z=3", 3, 3, 8, 2, Valid, 11, 11},
		{"valid stride 2 z=2 small map", 3, 2, 9, 2, Valid, 5, 7},
		{"same stride 1 z=1", 3, 1, 8, 1, Same, 6, 5},
		{"same stride 1 z=4 f=5", 5, 4, 10, 1, Same, 7, 7},
	}
	nanOf := math.Float32frombits
	perFilter := [][]float32{
		{nanOf(0x7fc00123)},
		{nanOf(0xffc0beef)},
		{nanOf(0x7f800001)}, // signalling
		{float32(math.Inf(1)), float32(math.Inf(-1))},
		{float32(math.Inf(-1))},
	}
	everywhere := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
		-math.SmallestNonzeroFloat32, nanOf(0x007fffff)}
	for ci, c := range cases {
		conv, err := NewConv2D(c.f, c.z, c.y, c.s, c.padding)
		if err != nil {
			t.Fatal(err)
		}
		w := prng.TensorFor(uint64(ci)+1, 97, c.f, c.f, c.z, c.y)
		wd, taps := w.Data(), c.f*c.f*c.z
		st := prng.New(uint64(ci) + 7)
		for k, specials := range perFilter {
			for _, v := range specials {
				wd[st.Intn(taps)*c.y+k] = v
			}
		}
		for i, v := range everywhere {
			for k := len(perFilter); k < c.y; k++ {
				wd[((i*3+k)%taps)*c.y+k] = v
			}
		}
		if err := conv.SetParams(w); err != nil {
			t.Fatal(err)
		}
		in := prng.TensorFor(uint64(ci)+1, 101, c.h, c.w, c.z)
		for i, v := range everywhere {
			in.Data()[(i*7)%len(in.Data())] = v
		}
		m, err := NewModel(in.Shape(), conv)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			m.SetWorkers(workers)
			want, err := conv.Forward(in)
			if err != nil {
				t.Fatal(err)
			}
			gh, gw := want.Dim(0), want.Dim(1)
			for i := 0; i < gh; i++ {
				for j := 0; j < gw; j++ {
					got, err := conv.ForwardAt(in, i, j)
					if err != nil {
						t.Fatalf("%s (%d,%d): %v", c.name, i, j, err)
					}
					if len(got) != c.y {
						t.Fatalf("%s (%d,%d): %d values, want %d", c.name, i, j, len(got), c.y)
					}
					for k, g := range got {
						if wv := want.At(i, j, k); math.Float32bits(g) != math.Float32bits(wv) {
							t.Fatalf("%s workers=%d (%d,%d,%d): ForwardAt %v (%#x), Forward %v (%#x)",
								c.name, workers, i, j, k, g, math.Float32bits(g), wv, math.Float32bits(wv))
						}
					}
				}
			}
			for _, pos := range [][2]int{{-1, 0}, {0, -1}, {gh, 0}, {0, gw}} {
				if _, err := conv.ForwardAt(in, pos[0], pos[1]); err == nil {
					t.Fatalf("%s: ForwardAt(%d,%d) outside the %dx%d map succeeded", c.name, pos[0], pos[1], gh, gw)
				}
			}
		}
		if _, err := conv.ForwardAt(tensor.New(c.h, c.w, c.z+1), 0, 0); err == nil {
			t.Fatalf("%s: ForwardAt accepted %d input channels", c.name, c.z+1)
		}
	}
}
