package linalg

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"milr/internal/prng"
)

func randMatrix(s *prng.Stream, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = s.Float64()*2 - 1
	}
	return m
}

// lstsq factors a and solves for b, failing the test on any error.
func lstsq(t *testing.T, a *Matrix, b []float64) []float64 {
	t.Helper()
	l, err := FactorLeastSquares(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := l.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func maxAbsVecDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// Mul and MulVec are the products the tests build systems and check
// residuals with; no product code multiplies matrices here.

// Mul returns m·o.
func (m *Matrix) Mul(o *Matrix) (*Matrix, error) {
	if m.Cols != o.Rows {
		return nil, fmt.Errorf("linalg: mul dimension mismatch %dx%d by %dx%d", m.Rows, m.Cols, o.Rows, o.Cols)
	}
	out := NewMatrix(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		arow := m.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := o.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.Cols != len(x) {
		return nil, fmt.Errorf("linalg: mulvec dimension mismatch %dx%d by %d", m.Rows, m.Cols, len(x))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var acc float64
		for j, v := range row {
			acc += v * x[j]
		}
		y[i] = acc
	}
	return y, nil
}

func TestMatrixBasics(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Error("At wrong")
	}
	m.Set(1, 0, 9)
	if m.Row(1)[0] != 9 {
		t.Error("Set/Row wrong")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("want ragged error")
	}
	tr := m.T()
	if tr.At(0, 1) != 9 {
		t.Error("transpose wrong")
	}
	if m.MaxAbs() != 9 {
		t.Errorf("MaxAbs = %v", m.MaxAbs())
	}
}

func TestMulAndMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 22, 43, 50}
	for i, v := range want {
		if c.Data[i] != v {
			t.Errorf("Mul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
	y, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("MulVec = %v", y)
	}
}

func TestSelectColumnsAndRows(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	c, err := a.SelectColumns([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if c.At(0, 0) != 3 || c.At(1, 1) != 4 {
		t.Errorf("SelectColumns wrong: %+v", c)
	}
	if _, err := a.SelectColumns([]int{5}); err == nil {
		t.Error("want out-of-range error")
	}
}

// Property: QR least squares recovers the exact solution of consistent
// overdetermined systems.
func TestQRConsistentOverdetermined(t *testing.T) {
	s := prng.New(13)
	for trial := 0; trial < 20; trial++ {
		m := 10 + s.Intn(30)
		n := 2 + s.Intn(8)
		a := randMatrix(s, m, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = s.Float64()*2 - 1
		}
		b, _ := a.MulVec(want)
		got := lstsq(t, a, b)
		if d := maxAbsVecDiff(got, want); d > 1e-8 {
			t.Fatalf("trial %d: off by %g", trial, d)
		}
	}
}

// Least squares of an inconsistent system must satisfy the normal
// equations: Aᵀ(Ax − b) = 0.
func TestQRResidualOrthogonality(t *testing.T) {
	s := prng.New(17)
	a := randMatrix(s, 20, 4)
	b := make([]float64, 20)
	for i := range b {
		b[i] = s.Float64()*2 - 1
	}
	x := lstsq(t, a, b)
	ax, _ := a.MulVec(x)
	resid := make([]float64, 20)
	for i := range resid {
		resid[i] = ax[i] - b[i]
	}
	at := a.T()
	g, _ := at.MulVec(resid)
	for i, v := range g {
		if math.Abs(v) > 1e-8 {
			t.Fatalf("normal equation %d violated: %g", i, v)
		}
	}
}

// Underdetermined systems return the minimum-norm solution: it must be
// consistent and orthogonal to the null space (x ∈ row space of A).
func TestMinNormUnderdetermined(t *testing.T) {
	s := prng.New(19)
	a := randMatrix(s, 3, 8)
	b := make([]float64, 3)
	for i := range b {
		b[i] = s.Float64()*2 - 1
	}
	x := lstsq(t, a, b)
	ax, _ := a.MulVec(x)
	if d := maxAbsVecDiff(ax, b); d > 1e-6 {
		t.Fatalf("not consistent: off by %g", d)
	}
	// Minimum norm: x should equal Aᵀy for some y, i.e. adding any null
	// vector increases the norm. Verify ‖x‖ ≤ ‖x + n‖ for a random null
	// vector n (projected).
	var normX float64
	for _, v := range x {
		normX += v * v
	}
	// Build a null vector: random vector minus its row-space projection
	// via least squares.
	r := make([]float64, 8)
	for i := range r {
		r[i] = s.Float64()*2 - 1
	}
	ar, _ := a.MulVec(r)
	proj := lstsq(t, a, ar)
	nullv := make([]float64, 8)
	var dot float64
	for i := range nullv {
		nullv[i] = r[i] - proj[i]
		dot += nullv[i] * x[i]
	}
	if math.Abs(dot) > 1e-6 {
		t.Fatalf("min-norm solution not orthogonal to null space: %g", dot)
	}
	_ = normX
}

func TestQRPivotRankDetection(t *testing.T) {
	s := prng.New(29)
	for trial := 0; trial < 10; trial++ {
		m := 20 + s.Intn(20)
		r := 1 + s.Intn(6)
		n := r + 2 + s.Intn(6)
		// A = B(m,r)·C(r,n) has rank exactly r.
		b := randMatrix(s, m, r)
		c := randMatrix(s, r, n)
		a, _ := b.Mul(c)
		qrp, err := FactorQRPivot(a, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		if qrp.Rank() != r {
			t.Fatalf("trial %d: rank %d, want %d", trial, qrp.Rank(), r)
		}
	}
}

func TestQRPivotSolveFullRank(t *testing.T) {
	s := prng.New(31)
	a := randMatrix(s, 15, 6)
	want := make([]float64, 6)
	for i := range want {
		want[i] = s.Float64()*2 - 1
	}
	b, _ := a.MulVec(want)
	qrp, err := FactorQRPivot(a, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if qrp.Rank() != 6 {
		t.Fatalf("rank %d, want 6", qrp.Rank())
	}
	// A full-rank probe clears the system for the unpivoted QR solver,
	// the pairing the protector's whole-filter plan relies on.
	qr, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := qr.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsVecDiff(got, want); d > 1e-8 {
		t.Fatalf("off by %g", d)
	}
}

// TestRidgeSolveConsistent: a tall matrix with two equal columns, the
// case the ridge best effort once took, fails QR, so FactorLeastSquares
// takes the pseudo-inverse, which must fit a consistent right-hand side
// exactly, give the equal columns equal weights (the minimum-norm
// split) and report itself inexact.
func TestRidgeSolveConsistent(t *testing.T) {
	s := prng.New(37)
	a := randMatrix(s, 10, 4)
	for i := 0; i < a.Rows; i++ {
		a.Set(i, 3, a.At(i, 1))
	}
	if _, err := FactorQR(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("QR of equal columns: err %v, want ErrSingular", err)
	}
	b, _ := a.MulVec([]float64{1, -2, 3, 0.5})
	l, err := FactorLeastSquares(a)
	if err != nil {
		t.Fatal(err)
	}
	if l.Exact() {
		t.Error("pseudo-inverse path reported exact")
	}
	x, err := l.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := a.MulVec(x)
	if d := maxAbsVecDiff(ax, b); d > 1e-12 {
		t.Fatalf("fit off by %g", d)
	}
	if d := math.Abs(x[1] - x[3]); d > 1e-12 {
		t.Fatalf("equal columns weighted %v and %v", x[1], x[3])
	}
}

func TestZeroMatrixRankZero(t *testing.T) {
	a := NewMatrix(5, 3)
	qrp, err := FactorQRPivot(a, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if qrp.Rank() != 0 {
		t.Errorf("rank %d, want 0", qrp.Rank())
	}
}

// Property: transpose is an involution and (AB)ᵀ = BᵀAᵀ.
func TestTransposeProductProperty(t *testing.T) {
	s := prng.New(41)
	err := quick.Check(func(seed uint64) bool {
		st := prng.New(seed)
		m, k, n := 1+st.Intn(6), 1+st.Intn(6), 1+st.Intn(6)
		a := randMatrix(s, m, k)
		b := randMatrix(s, k, n)
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		lhs := ab.T()
		rhs, err := b.T().Mul(a.T())
		if err != nil {
			return false
		}
		for i := range lhs.Data {
			if math.Abs(lhs.Data[i]-rhs.Data[i]) > 1e-12 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}
