package nn

import (
	"testing"

	"milr/internal/prng"
	"milr/internal/tensor"
)

func TestConv2DKnownOutput(t *testing.T) {
	conv, err := NewConv2D(2, 1, 1, 1, Valid)
	if err != nil {
		t.Fatal(err)
	}
	copy(conv.Params().Data(), []float32{1, 0, 0, 1}) // identity-ish 2x2 filter
	in := tensor.MustFromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 3, 3, 1)
	out, err := conv.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	// Each output = top-left + bottom-right of the 2x2 window.
	want := []float32{1 + 5, 2 + 6, 4 + 8, 5 + 9}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Errorf("out[%d] = %v, want %v", i, out.Data()[i], v)
		}
	}
}

func TestConv2DSamePaddingShape(t *testing.T) {
	conv, err := NewConv2D(3, 2, 5, 1, Same)
	if err != nil {
		t.Fatal(err)
	}
	shape, err := conv.OutShape(tensor.Shape{8, 8, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !shape.Equal(tensor.Shape{8, 8, 5}) {
		t.Errorf("same-padding shape %v", shape)
	}
	if conv.Pad() != 1 {
		t.Errorf("pad %d, want 1", conv.Pad())
	}
}

func TestConv2DValidation(t *testing.T) {
	if _, err := NewConv2D(2, 1, 1, 1, Same); err == nil {
		t.Error("same padding with even filter must fail")
	}
	if _, err := NewConv2D(3, 0, 1, 1, Valid); err == nil {
		t.Error("zero channels must fail")
	}
	conv, _ := NewConv2D(3, 2, 4, 1, Valid)
	if _, err := conv.OutShape(tensor.Shape{8, 8, 3}); err == nil {
		t.Error("channel mismatch must fail")
	}
	if _, err := conv.OutShape(tensor.Shape{2, 2, 2}); err == nil {
		t.Error("input smaller than filter must fail")
	}
}

func TestDenseForward(t *testing.T) {
	d, err := NewDense(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	copy(d.Params().Data(), []float32{1, 2, 3, 4, 5, 6})
	in := tensor.MustFromSlice([]float32{1, 1, 1}, 1, 3)
	out, err := d.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[0] != 9 || out.Data()[1] != 12 {
		t.Errorf("dense out = %v", out.Data())
	}
}

func TestBiasBroadcastModes(t *testing.T) {
	b, err := NewBias(2)
	if err != nil {
		t.Fatal(err)
	}
	copy(b.Params().Data(), []float32{10, 20})
	// Rank-3: per channel.
	in3 := tensor.MustFromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	out3, err := b.Forward(in3)
	if err != nil {
		t.Fatal(err)
	}
	want3 := []float32{11, 22, 13, 24}
	for i, v := range want3 {
		if out3.Data()[i] != v {
			t.Errorf("rank3 out[%d] = %v, want %v", i, out3.Data()[i], v)
		}
	}
	// Rank-2: per column.
	in2 := tensor.MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	out2, err := b.Forward(in2)
	if err != nil {
		t.Fatal(err)
	}
	want2 := []float32{11, 22, 13, 24}
	for i, v := range want2 {
		if out2.Data()[i] != v {
			t.Errorf("rank2 out[%d] = %v, want %v", i, out2.Data()[i], v)
		}
	}
	// Invert must undo Forward exactly.
	back, err := b.Invert(out3)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equalish(in3, 0) {
		t.Error("bias Invert failed")
	}
}

func TestReLU(t *testing.T) {
	a := NewReLU()
	in := tensor.MustFromSlice([]float32{-2, 0, 3}, 3)
	out, err := a.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[0] != 0 || out.Data()[2] != 3 {
		t.Errorf("relu out = %v", out.Data())
	}
	// Recovery semantics: identity.
	m, err := NewModel(in.Shape(), a)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := m.ForwardRange(0, 1, in, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Equalish(in, 0) {
		t.Error("relu recovery pass is not identity")
	}
}

func TestMaxPoolForward(t *testing.T) {
	p, err := NewMaxPool2D(2)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.MustFromSlice([]float32{
		1, 5, 2, 0,
		3, 4, 1, 1,
		0, 0, 9, 8,
		0, 0, 7, 6,
	}, 4, 4, 1)
	out, err := p.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{5, 2, 0, 9}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Errorf("pool out[%d] = %v, want %v", i, out.Data()[i], v)
		}
	}
	if _, err := p.OutShape(tensor.Shape{5, 4, 1}); err == nil {
		t.Error("non-divisible pooling must fail")
	}
	if _, err := NewMaxPool2D(1); err == nil {
		t.Error("window 1 must fail")
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	if _, err := NewModel(tensor.Shape{2, 3, 4}, f); err != nil {
		t.Fatal(err)
	}
	in := prng.New(1).Tensor(2, 3, 4)
	out, err := f.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape().Equal(tensor.Shape{1, 24}) {
		t.Errorf("flatten shape %v", out.Shape())
	}
	back, err := f.Invert(out)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Shape().Equal(tensor.Shape{2, 3, 4}) || !back.Equalish(in, 0) {
		t.Error("flatten invert failed")
	}
}

func TestSGDParamStep(t *testing.T) {
	d, _ := NewDense(2, 2)
	copy(d.Params().Data(), []float32{1, 1, 1, 1})
	copy(d.grad.Data(), []float32{1, 0, 0, 0})
	d.GradStep(0.5, 0)
	if d.Params().Data()[0] != 0.5 {
		t.Errorf("after step: %v", d.Params().Data())
	}
	if d.grad.Data()[0] != 0 {
		t.Error("grad not cleared")
	}
	if err := d.SetParams(tensor.New(5)); err == nil {
		t.Error("SetParams with wrong size must fail")
	}
}
