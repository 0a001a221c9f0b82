package nn

import (
	"math"
	"testing"

	"milr/internal/prng"
	"milr/internal/tensor"
)

// Numerical gradient checking: for every trainable layer kind, compare
// the analytic backward pass against central finite differences of a
// scalar loss. This is the strongest correctness evidence the training
// substrate can have.

// scalarLoss is 0.5·‖out‖² so dLoss/dout = out.
func scalarLoss(out *tensor.Tensor) (float64, *tensor.Tensor) {
	var l float64
	grad := out.Clone()
	for _, v := range out.Data() {
		l += 0.5 * float64(v) * float64(v)
	}
	return l, grad
}

func forwardLoss(t *testing.T, l Layer, in *tensor.Tensor) float64 {
	t.Helper()
	out, _, err := l.ForwardTrain(in)
	if err != nil {
		t.Fatalf("ForwardTrain: %v", err)
	}
	loss, _ := scalarLoss(out)
	return loss
}

// checkParamGrad verifies the accumulated parameter gradient of one
// layer.
func checkParamGrad(t *testing.T, l Parameterized, in *tensor.Tensor, tol float64) {
	t.Helper()
	out, cache, err := l.ForwardTrain(in)
	if err != nil {
		t.Fatalf("ForwardTrain: %v", err)
	}
	_, dout := scalarLoss(out)
	if _, err := l.Backward(cache, dout); err != nil {
		t.Fatalf("Backward: %v", err)
	}
	var analytic *tensor.Tensor
	switch v := l.(type) {
	case *Conv2D:
		analytic = v.grad.Clone()
		v.grad.Fill(0)
	case *Dense:
		analytic = v.grad.Clone()
		v.grad.Fill(0)
	case *Bias:
		analytic = v.grad.Clone()
		v.grad.Fill(0)
	default:
		t.Fatalf("unhandled layer type %T", l)
	}
	params := l.Params().Data()
	const eps = 1e-3
	for _, idx := range []int{0, len(params) / 2, len(params) - 1} {
		orig := params[idx]
		params[idx] = orig + eps
		up := forwardLoss(t, l, in)
		params[idx] = orig - eps
		down := forwardLoss(t, l, in)
		params[idx] = orig
		numeric := (up - down) / (2 * eps)
		a := float64(analytic.Data()[idx])
		if math.Abs(a-numeric) > tol*(1+math.Abs(numeric)) {
			t.Errorf("param %d: analytic %g vs numeric %g", idx, a, numeric)
		}
	}
}

// checkInputGrad verifies the returned input gradient of one layer.
func checkInputGrad(t *testing.T, l Layer, in *tensor.Tensor, tol float64) {
	t.Helper()
	out, cache, err := l.ForwardTrain(in)
	if err != nil {
		t.Fatalf("ForwardTrain: %v", err)
	}
	_, dout := scalarLoss(out)
	din, err := l.Backward(cache, dout)
	if err != nil {
		t.Fatalf("Backward: %v", err)
	}
	// Clear any accumulated parameter gradient so repeated forward
	// passes stay comparable.
	if p, ok := l.(Parameterized); ok {
		switch v := p.(type) {
		case *Conv2D:
			v.grad.Fill(0)
		case *Dense:
			v.grad.Fill(0)
		case *Bias:
			v.grad.Fill(0)
		}
	}
	data := in.Data()
	const eps = 1e-3
	for _, idx := range []int{0, len(data) / 3, len(data) - 1} {
		orig := data[idx]
		data[idx] = orig + eps
		up := forwardLoss(t, l, in)
		data[idx] = orig - eps
		down := forwardLoss(t, l, in)
		data[idx] = orig
		numeric := (up - down) / (2 * eps)
		a := float64(din.Data()[idx])
		if math.Abs(a-numeric) > tol*(1+math.Abs(numeric)) {
			t.Errorf("input %d: analytic %g vs numeric %g", idx, a, numeric)
		}
	}
}

func TestConvGradients(t *testing.T) {
	for _, cfg := range []struct {
		name    string
		padding Padding
	}{{"valid", Valid}, {"same", Same}} {
		t.Run(cfg.name, func(t *testing.T) {
			conv, err := NewConv2D(3, 2, 4, 1, cfg.padding)
			if err != nil {
				t.Fatal(err)
			}
			s := prng.New(1)
			for i := range conv.Params().Data() {
				conv.Params().Data()[i] = s.Uniform(-0.5, 0.5)
			}
			in := s.Tensor(6, 6, 2)
			checkParamGrad(t, conv, in, 1e-2)
			checkInputGrad(t, conv, in, 1e-2)
		})
	}
}

func TestDenseGradients(t *testing.T) {
	d, err := NewDense(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := prng.New(2)
	for i := range d.Params().Data() {
		d.Params().Data()[i] = s.Uniform(-0.5, 0.5)
	}
	in := s.Tensor(1, 6)
	checkParamGrad(t, d, in, 1e-2)
	checkInputGrad(t, d, in, 1e-2)
}

// denseBackwardOracle is Dense.Backward as it was before it summed in
// place: both products as GEMMs of transposed copies, and the weight
// gradient added after. It is the bit oracle for Dense.Backward.
func denseBackwardOracle(d *Dense, in, dout *tensor.Tensor) (*tensor.Tensor, error) {
	inT, err := tensor.Transpose(in)
	if err != nil {
		return nil, err
	}
	dw, err := tensor.MatMul(inT, dout)
	if err != nil {
		return nil, err
	}
	if err := d.grad.Add(dw); err != nil {
		return nil, err
	}
	wT, err := tensor.Transpose(d.w)
	if err != nil {
		return nil, err
	}
	return tensor.MatMul(dout, wT)
}

// TestDenseBackwardMatchesTransposeOracle pins Dense.Backward's weight
// gradient and input gradient bit-identical to the transposing GEMMs,
// on one sample and on batches below and above the GEMM's tiling
// threshold, with ±0 inputs and gradients (skipped terms, and −0
// products that the GEMM's +0 start turns to +0), a −0 gradient entry,
// and NaN and ±Inf in every operand. Any NaN matches any NaN, as in the
// GEMM's own oracle.
func TestDenseBackwardMatchesTransposeOracle(t *testing.T) {
	s := prng.New(47)
	negZero := float32(math.Copysign(0, -1))
	special := []float32{0, negZero, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	fill := func(data []float32, zeros, specials bool) {
		for i := range data {
			data[i] = s.Uniform(-1, 1)
			switch r := s.Intn(10); {
			case zeros && r < 3:
				data[i] = special[r%2]
			case specials && r == 3 && s.Intn(8) == 0:
				data[i] = special[2+s.Intn(3)]
			}
		}
	}
	for _, c := range []struct {
		m, n, p  int
		specials bool
	}{
		{1, 6, 4, false}, {1, 640, 96, false}, {3, 17, 5, false}, {20, 33, 9, false},
		{1, 50, 13, true}, {4, 21, 7, true}, {18, 9, 30, true},
	} {
		d, err := NewDense(c.n, c.p)
		if err != nil {
			t.Fatal(err)
		}
		fill(d.Params().Data(), false, c.specials)
		fill(d.grad.Data(), true, false)
		in, dout := tensor.New(c.m, c.n), tensor.New(c.m, c.p)
		fill(in.Data(), true, c.specials)
		fill(dout.Data(), true, c.specials)
		grad0 := d.grad.Clone()
		want, err := denseBackwardOracle(d, in, dout)
		if err != nil {
			t.Fatal(err)
		}
		wantGrad := d.grad.Clone()
		copy(d.grad.Data(), grad0.Data())
		got, err := d.Backward(in, dout)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmp := range []struct {
			what      string
			got, want []float32
		}{{"input gradient", got.Data(), want.Data()}, {"weight gradient", d.grad.Data(), wantGrad.Data()}} {
			if len(cmp.got) != len(cmp.want) {
				t.Fatalf("%+v: %s has %d values, oracle %d", c, cmp.what, len(cmp.got), len(cmp.want))
			}
			for i, g := range cmp.got {
				w := cmp.want[i]
				if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
					t.Fatalf("%+v: %s %d = %v [%#x], oracle %v [%#x]", c, cmp.what, i, g, math.Float32bits(g), w, math.Float32bits(w))
				}
			}
		}
	}
	d, err := NewDense(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]*tensor.Tensor{
		{tensor.New(1, 5), tensor.New(1, 4)},
		{tensor.New(1, 6), tensor.New(1, 5)},
		{tensor.New(2, 6), tensor.New(1, 4)},
		{tensor.New(6), tensor.New(1, 4)},
	} {
		if _, err := d.Backward(bad[0], bad[1]); err == nil {
			t.Errorf("input %v, output gradient %v: want a shape error", bad[0].Shape(), bad[1].Shape())
		}
	}
}

func TestBiasGradients(t *testing.T) {
	b, err := NewBias(3)
	if err != nil {
		t.Fatal(err)
	}
	s := prng.New(3)
	for i := range b.Params().Data() {
		b.Params().Data()[i] = s.Uniform(-0.5, 0.5)
	}
	in := s.Tensor(4, 4, 3)
	checkParamGrad(t, b, in, 1e-2)
	checkInputGrad(t, b, in, 1e-2)
}

func TestActivationInputGradients(t *testing.T) {
	in := prng.New(4).Tensor(10)
	// Nudge values away from the ReLU kink where finite differences
	// are invalid.
	for i, v := range in.Data() {
		if v > -0.05 && v < 0.05 {
			in.Data()[i] = 0.2
		}
	}
	checkInputGrad(t, NewReLU(), in, 1e-2)
}

func TestPoolInputGradients(t *testing.T) {
	p, err := NewMaxPool2D(2)
	if err != nil {
		t.Fatal(err)
	}
	in := prng.New(5).Tensor(4, 4, 2)
	checkInputGrad(t, p, in, 1e-2)
}

func TestFlattenInputGradients(t *testing.T) {
	in := prng.New(6).Tensor(3, 3, 2)
	checkInputGrad(t, NewFlatten(), in, 1e-2)
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	logits := tensor.MustFromSlice([]float32{1, -2, 0.5, 3}, 1, 4)
	label := 2
	loss, grad, err := SoftmaxCrossEntropy(logits, label)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 {
		t.Errorf("loss %v not positive", loss)
	}
	const eps = 1e-3
	for i := range logits.Data() {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + eps
		up, _, _ := SoftmaxCrossEntropy(logits, label)
		logits.Data()[i] = orig - eps
		down, _, _ := SoftmaxCrossEntropy(logits, label)
		logits.Data()[i] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(float64(grad.Data()[i])-numeric) > 1e-2 {
			t.Errorf("logit %d: analytic %v vs numeric %v", i, grad.Data()[i], numeric)
		}
	}
	if _, _, err := SoftmaxCrossEntropy(logits, 7); err == nil {
		t.Error("out-of-range label must fail")
	}
}
