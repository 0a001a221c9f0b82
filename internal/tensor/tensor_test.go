package tensor

import (
	"testing"
	"testing/quick"
)

func TestShapeBasics(t *testing.T) {
	s := Shape{2, 3, 4}
	if got := s.NumElements(); got != 24 {
		t.Errorf("NumElements = %d, want 24", got)
	}
	if !s.Equal(Shape{2, 3, 4}) {
		t.Error("Equal failed on identical shapes")
	}
	if s.Equal(Shape{2, 3}) || s.Equal(Shape{2, 3, 5}) {
		t.Error("Equal matched different shapes")
	}
	if got := s.String(); got != "(2,3,4)" {
		t.Errorf("String = %q", got)
	}
	c := s.Clone()
	c[0] = 9
	if s[0] != 2 {
		t.Error("Clone aliases original")
	}
}

func TestNewAndIndexing(t *testing.T) {
	tt := New(2, 3)
	tt.Set(5, 1, 2)
	if got := tt.At(1, 2); got != 5 {
		t.Errorf("At(1,2) = %v, want 5", got)
	}
	if got := tt.At(0, 0); got != 0 {
		t.Errorf("At(0,0) = %v, want 0", got)
	}
	if tt.NumElements() != 6 || tt.Rank() != 2 || tt.Dim(1) != 3 {
		t.Error("metadata wrong")
	}
}

func TestFromSliceValidation(t *testing.T) {
	if _, err := FromSlice([]float32{1, 2, 3}, 2, 2); err == nil {
		t.Error("want error on size mismatch")
	}
	tt, err := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatalf("FromSlice: %v", err)
	}
	if tt.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", tt.At(1, 0))
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4}, 4)
	b := a.Clone()
	b.Data()[0] = 99
	if a.Data()[0] != 1 {
		t.Error("Clone aliases data")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b, err := a.Reshape(3, 2)
	if err != nil {
		t.Fatalf("Reshape: %v", err)
	}
	b.Set(42, 0, 1)
	if a.At(0, 1) != 42 {
		t.Error("Reshape should share data")
	}
	if _, err := a.Reshape(4, 2); err == nil {
		t.Error("want error on bad reshape")
	}
}

func TestArithmetic(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3}, 3)
	b := MustFromSlice([]float32{10, 20, 30}, 3)
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	if a.Data()[2] != 33 {
		t.Errorf("Add: got %v", a.Data())
	}
	if err := a.Sub(b); err != nil {
		t.Fatal(err)
	}
	if a.Data()[0] != 1 {
		t.Errorf("Sub: got %v", a.Data())
	}
	a.Fill(7)
	if a.Data()[0] != 7 || a.Data()[2] != 7 {
		t.Error("Fill failed")
	}
	a.Apply(func(x float32) float32 { return x + 1 })
	if a.Data()[0] != 8 {
		t.Error("Apply failed")
	}
	if a.Sum() != 24 {
		t.Errorf("Sum = %v, want 24", a.Sum())
	}
}

func TestMaxAbsDiffAndArgMax(t *testing.T) {
	a := MustFromSlice([]float32{1, 5, 3}, 3)
	b := MustFromSlice([]float32{1, 2, 3}, 3)
	d, err := a.MaxAbsDiff(b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 {
		t.Errorf("MaxAbsDiff = %v, want 3", d)
	}
	if !a.Equalish(a, 0) {
		t.Error("Equalish(self) false")
	}
	if a.Equalish(b, 1) {
		t.Error("Equalish too lenient")
	}
	if a.ArgMax() != 1 {
		t.Errorf("ArgMax = %d, want 1", a.ArgMax())
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := MustFromSlice([]float32{5, 6, 7, 8}, 2, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{19, 22, 43, 50}
	for i, v := range want {
		if c.Data()[i] != v {
			t.Errorf("MatMul[%d] = %v, want %v", i, c.Data()[i], v)
		}
	}
	if _, err := MatMul(a, MustFromSlice([]float32{1, 2, 3}, 3, 1)); err == nil {
		t.Error("want dimension mismatch error")
	}
}

func TestTransposeInvolution(t *testing.T) {
	err := quick.Check(func(vals []float32) bool {
		if len(vals) < 6 {
			return true
		}
		vals = vals[:6]
		a := MustFromSlice(vals, 2, 3)
		at, err := Transpose(a)
		if err != nil {
			return false
		}
		att, err := Transpose(at)
		if err != nil {
			return false
		}
		return att.Equalish(a, 0)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestPadCropRoundTrip(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		in := New(4, 5, 2)
		d := in.Data()
		s := uint64(seed)
		for i := range d {
			s = s*6364136223846793005 + 1442695040888963407
			d[i] = float32(int32(s>>33)) / (1 << 30)
		}
		padded, err := Pad2D(in, 2)
		if err != nil {
			return false
		}
		if !padded.Shape().Equal(Shape{8, 9, 2}) {
			return false
		}
		back, err := Crop2D(padded, 2)
		if err != nil {
			return false
		}
		return back.Equalish(in, 0)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestPad2DZeroBorder(t *testing.T) {
	in := New(2, 2, 1)
	in.Fill(3)
	p, err := Pad2D(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.At(0, 0, 0) != 0 || p.At(3, 3, 0) != 0 {
		t.Error("padding not zero")
	}
	if p.At(1, 1, 0) != 3 || p.At(2, 2, 0) != 3 {
		t.Error("interior not preserved")
	}
}

// TestIm2ColMatchesDirectConv verifies the im2col lowering reproduces the
// paper's Equation 4 computed naively.
func TestIm2ColMatchesDirectConv(t *testing.T) {
	const h, w, z, f, y = 5, 5, 2, 3, 4
	in := New(h, w, z)
	for i := range in.Data() {
		in.Data()[i] = float32(i%7) - 3
	}
	filt := New(f, f, z, y)
	for i := range filt.Data() {
		filt.Data()[i] = float32(i%5)/2 - 1
	}
	cols, err := Im2Col(in, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := filt.Reshape(f*f*z, y)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MatMul(cols, wm)
	if err != nil {
		t.Fatal(err)
	}
	g := h - f + 1
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			for k := 0; k < y; k++ {
				var want float64
				for f1 := 0; f1 < f; f1++ {
					for f2 := 0; f2 < f; f2++ {
						for zz := 0; zz < z; zz++ {
							want += float64(filt.At(f1, f2, zz, k)) * float64(in.At(i+f1, j+f2, zz))
						}
					}
				}
				if diff := float64(got.At(i*g+j, k)) - want; diff > 1e-4 || diff < -1e-4 {
					t.Fatalf("conv mismatch at (%d,%d,%d): got %v want %v", i, j, k, got.At(i*g+j, k), want)
				}
			}
		}
	}
}

func TestCol2ImRoundTrip(t *testing.T) {
	// Im2Col followed by Col2Im (averaging) must reproduce the original
	// input exactly when the input is consistent.
	in := New(6, 6, 3)
	for i := range in.Data() {
		in.Data()[i] = float32(i)*0.25 - 4
	}
	cols, err := Im2Col(in, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Col2Im(cols, 6, 6, 3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equalish(in, 1e-4) {
		d, _ := back.MaxAbsDiff(in)
		t.Fatalf("round trip differs by %v", d)
	}
}

func TestCol2ImSumIsAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2ImSum(y)> — the defining property of the
	// adjoint, which gradient correctness depends on.
	const h, w, z, f = 5, 4, 2, 2
	x := New(h, w, z)
	for i := range x.Data() {
		x.Data()[i] = float32((i*13)%11) - 5
	}
	cols, err := Im2Col(x, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	y := New(cols.Dim(0), cols.Dim(1))
	for i := range y.Data() {
		y.Data()[i] = float32((i*7)%13) - 6
	}
	var lhs float64
	for i, v := range cols.Data() {
		lhs += float64(v) * float64(y.Data()[i])
	}
	folded, err := Col2ImSum(y, h, w, z, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	var rhs float64
	for i, v := range x.Data() {
		rhs += float64(v) * float64(folded.Data()[i])
	}
	if d := lhs - rhs; d > 1e-3 || d < -1e-3 {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestConvOutputSize(t *testing.T) {
	cases := []struct {
		m, f, p, s int
		want       int
		ok         bool
	}{
		{28, 3, 0, 1, 26, true},
		{32, 3, 1, 1, 32, true},
		{32, 5, 2, 1, 32, true},
		{10, 3, 0, 2, 4, false}, // 7/2 does not divide evenly
		{3, 5, 0, 1, 0, false},
	}
	for _, c := range cases {
		got, ok := ConvOutputSize(c.m, c.f, c.p, c.s)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ConvOutputSize(%d,%d,%d,%d) = %d,%v want %d,%v", c.m, c.f, c.p, c.s, got, ok, c.want, c.ok)
		}
	}
}

func TestStrideTwoIm2Col(t *testing.T) {
	in := New(6, 6, 1)
	for i := range in.Data() {
		in.Data()[i] = float32(i)
	}
	cols, err := Im2Col(in, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cols.Dim(0) != 9 || cols.Dim(1) != 4 {
		t.Fatalf("shape %v, want (9,4)", cols.Shape())
	}
	// Row 1 = window at (0,2): values 2,3,8,9.
	want := []float32{2, 3, 8, 9}
	for i, v := range want {
		if cols.At(1, i) != v {
			t.Errorf("cols[1][%d] = %v, want %v", i, cols.At(1, i), v)
		}
	}
}

// TestLoweringRejectsMisfitShapes asserts that Im2Col and Crop2D return
// an error, not a panic, for arguments that do not fit their input.
func TestLoweringRejectsMisfitShapes(t *testing.T) {
	in := New(2, 5, 1)
	for _, tc := range []struct {
		name string
		call func() error
	}{
		// (2-3)/2 truncates to 0, so a shape check on the output grid
		// alone would accept this filter and read past the input.
		{"Im2Col filter taller than input, stride past the overhang", func() error { _, err := Im2Col(in, 3, 2); return err }},
		{"Im2Col filter wider than input", func() error { _, err := Im2Col(New(5, 2, 1), 3, 2); return err }},
		{"Crop2D negative", func() error { _, err := Crop2D(in, -1); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if tc.call() == nil {
				t.Fatal("no error")
			}
		})
	}
}
