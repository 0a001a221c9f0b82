package nn

import (
	"fmt"
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
// Forward (or RecoveryForward). It lives in a _test.go file so that no
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
	if recovery {
		return l.RecoveryForward(in)
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
		for _, workers := range []int{1, 3} {
			c.layer.(WorkerTunable).SetWorkers(workers)
			got, err := c.layer.Forward(xs[0])
			if err != nil {
				t.Fatalf("%s workers=%d forward: %v", c.name, workers, err)
			}
			assertIdentical(t, fmt.Sprintf("%s workers=%d forward", c.name, workers), want[0], got)
			batch, err := c.layer.(BatchCapable).ForwardBatch(xs)
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
