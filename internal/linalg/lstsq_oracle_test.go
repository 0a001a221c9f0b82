package linalg

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"milr/internal/prng"
)

// LeastSquares, minNorm, regularize, RidgeSolve and SolveSquare are the
// one-shot solvers FactorLeastSquares replaced, verbatim but for
// SolveSquare, which inlines the partial-pivoting LU it called: the
// engine called LeastSquares and, when it failed, RidgeSolve, factoring
// once per right-hand side. leastSquaresOracle is that composition: the
// bit oracle for FactorLeastSquares's QR path, and the normal-equation
// reference its pseudo-inverse path is held within a tolerance of.

// LeastSquares solves min‖A·x − b‖₂ for a single right-hand side.
//
//   - Overdetermined or square systems (Rows ≥ Cols) use Householder QR,
//     the numerically robust path for the overdetermined systems MILR's
//     conv parameter solver produces (G² equations, F²Z unknowns).
//   - Underdetermined systems (Rows < Cols) return the minimum-norm
//     solution x = Aᵀ(AAᵀ)⁻¹b — the paper's lstsq fallback for
//     whole-layer corruption of partial-recoverable conv layers (§V-B):
//     "they attempt to find a least-square solution ... as close as
//     possible to the actual solution".
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: lstsq rhs length %d, want %d", len(b), a.Rows)
	}
	if a.Rows >= a.Cols {
		qr, err := FactorQR(a)
		if err != nil {
			return nil, err
		}
		return qr.Solve(b)
	}
	return minNorm(a, b)
}

func minNorm(a *Matrix, b []float64) ([]float64, error) {
	at := a.T()
	aat, err := a.Mul(at)
	if err != nil {
		return nil, err
	}
	regularize(aat)
	y, err := SolveSquare(aat, b)
	if err != nil {
		return nil, err
	}
	return at.MulVec(y)
}

// RidgeSolve returns the Tikhonov-regularized solution of min‖A·x − b‖² +
// λ‖x‖² via the normal equations (AᵀA + λI)x = Aᵀb, with λ scaled to the
// matrix magnitude. It is the robust fallback for restricted recovery
// systems that turn out rank-deficient.
func RidgeSolve(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: ridge rhs length %d, want %d", len(b), a.Rows)
	}
	at := a.T()
	ata, err := at.Mul(a)
	if err != nil {
		return nil, err
	}
	lambda := ata.MaxAbs() * 1e-10
	if lambda == 0 {
		lambda = 1e-12
	}
	for i := 0; i < ata.Rows; i++ {
		ata.Data[i*ata.Cols+i] += lambda
	}
	rhs, err := at.MulVec(b)
	if err != nil {
		return nil, err
	}
	return SolveSquare(ata, rhs)
}

// regularize adds a tiny ridge to the diagonal so severely rank-deficient
// AAᵀ systems (e.g. a conv sub-region whose padding zeroes entire taps)
// still produce the best-effort solution the paper describes instead of
// failing outright.
func regularize(m *Matrix) {
	eps := m.MaxAbs() * 1e-12
	if eps == 0 {
		eps = 1e-12
	}
	for i := 0; i < m.Rows && i < m.Cols; i++ {
		m.Data[i*m.Cols+i] += eps
	}
}

// SolveSquare solves the square system a·x = b by LU with partial
// pivoting, failing when a pivot falls below n·1e-14 of a's largest
// magnitude (of 1 for a zero matrix).
func SolveSquare(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols || len(b) != a.Rows {
		return nil, fmt.Errorf("linalg: solve %dx%d by %d values", a.Rows, a.Cols, len(b))
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	scale := a.MaxAbs()
	if scale == 0 {
		scale = 1
	}
	tol := scale * float64(n) * 1e-14
	for k := 0; k < n; k++ {
		p, best := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > best {
				p, best = i, v
			}
		}
		if best < tol {
			return nil, fmt.Errorf("pivot %d below tolerance %.3e: %w", k, tol, ErrSingular)
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := lu.At(k, k)
		rowK := lu.Row(k)
		for i := k + 1; i < n; i++ {
			rowI := lu.Row(i)
			m := rowI[k] / pivot
			rowI[k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[piv[i]]
	}
	for i := 1; i < n; i++ {
		row := lu.Row(i)
		var acc float64
		for j := 0; j < i; j++ {
			acc += row[j] * x[j]
		}
		x[i] -= acc
	}
	for i := n - 1; i >= 0; i-- {
		row := lu.Row(i)
		acc := x[i]
		for j := i + 1; j < n; j++ {
			acc -= row[j] * x[j]
		}
		x[i] = acc / row[i]
	}
	return x, nil
}

// leastSquaresOracle is the engine's old solve of one restricted
// system: LeastSquares, then RidgeSolve when it fails. exact is what
// the engine counted as a unique solution.
func leastSquaresOracle(a *Matrix, b []float64) (x []float64, exact bool, err error) {
	x, err = LeastSquares(a, b)
	if err == nil {
		return x, a.Rows >= a.Cols, nil
	}
	x, err = RidgeSolve(a, b)
	return x, false, err
}

// rowSpaceResidual returns the norm of the part of x outside A's row
// space, relative to ‖x‖ (0 for x = 0): the row space is spanned by an
// orthonormal basis that modified Gram–Schmidt, run twice per row,
// builds from A's rows, dropping a row whose remainder is below 1e-9 of
// the largest row norm.
func rowSpaceResidual(a *Matrix, x []float64) float64 {
	var basis [][]float64
	var maxRow float64
	for i := 0; i < a.Rows; i++ {
		maxRow = max(maxRow, norm2(a.Row(i)))
	}
	project := func(v []float64) {
		for _, q := range basis {
			var d float64
			for j := range v {
				d += q[j] * v[j]
			}
			for j := range v {
				v[j] -= d * q[j]
			}
		}
	}
	for i := 0; i < a.Rows; i++ {
		v := slices.Clone(a.Row(i))
		project(v)
		project(v)
		if n := norm2(v); n > 1e-9*maxRow {
			for j := range v {
				v[j] /= n
			}
			basis = append(basis, v)
		}
	}
	nx := norm2(x)
	if nx == 0 {
		return 0
	}
	r := slices.Clone(x)
	project(r)
	project(r)
	return norm2(r) / nx
}

func norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// TestFactorLeastSquaresMatchesOracle checks FactorLeastSquares and
// Solve on every oracleCases matrix and on wide ones: full row rank,
// row rank-deficient (duplicate rows, an exact low-rank product), a
// 150×160 matrix with a zero row (rank 149, and the minimum-norm
// solution of its other rows) and the zero matrix, each solved for
// three right-hand sides from one factorization.
//
//   - Where FactorQR accepts A (tall or square), the solution is the
//     QR path's, bit for bit the one-shot oracle's.
//   - Everywhere else it is the pseudo-inverse solution: its residual
//     orthogonal to A's columns (‖Aᵀ(Ax−b)‖∞ at most
//     1e-9·max|A|·(max|A|·‖x‖∞ + ‖b‖∞)·rows), x in A's row space (1e-9
//     of ‖x‖ outside it), and within 2e-6 of the normal-equation
//     oracle, relative to max(1, ‖oracle‖∞): the oracle's 1e-12 and
//     1e-10 ridges and its squared condition number put it up to
//     1.7e-6 off. Where a wide A is row rank-deficient the old
//     minimum-norm LU solved a singular AAᵀ + εI, whose 1/ε blows
//     rounding up to 1.3e-5, so there the tolerance is 5e-5.
//   - A NaN or ±Inf off the QR path is an error wrapping ErrSingular,
//     and the all-subnormal matrix, rank 0 at FactorQR's cut, solves
//     to x = 0.
//
// Each path must be reached, or the test is vacuous.
func TestFactorLeastSquaresMatchesOracle(t *testing.T) {
	s := prng.New(4141)
	type tc = struct {
		name string
		a    *Matrix
	}
	cases := oracleCases()
	for _, sh := range [][2]int{{3, 8}, {9, 27}, {1, 5}, {100, 285}} {
		cases = append(cases, tc{fmt.Sprintf("wide%dx%d", sh[0], sh[1]), randMatrix(s, sh[0], sh[1])})
	}
	dupRows := randMatrix(s, 8, 20)
	copy(dupRows.Row(5), dupRows.Row(2))
	lowRank, err := randMatrix(s, 10, 3).Mul(randMatrix(s, 3, 25))
	if err != nil {
		t.Fatal(err)
	}
	// The old minimum-norm LU refused this one: at 150 rows its
	// tolerance (150·1e-14 of AAᵀ's scale) exceeds the 1e-12 of it that
	// regularize adds, so the zero row sent it on to the ridge. Its
	// pseudo-inverse has rank 149 and is the minimum-norm solution of
	// the other 149 equations (a zero row says nothing about x), which
	// the oracle's LU solves without the ridge, about 1e-9 off: its
	// 1e-12 ridge on AAᵀ.
	wideZeroRow := randMatrix(s, 150, 160)
	clear(wideZeroRow.Row(70))
	otherRows := NewMatrix(149, 160)
	copy(otherRows.Data, wideZeroRow.Data[:70*160])
	copy(otherRows.Data[70*160:], wideZeroRow.Data[71*160:])
	cases = append(cases, tc{"wide-duplicate-rows", dupRows}, tc{"wide-lowrank3", lowRank},
		tc{"wide-zero-row", wideZeroRow}, tc{"wide-all-zero", NewMatrix(4, 9)})
	paths := map[string]int{}
	for _, c := range cases {
		in := c.a.Clone()
		lsq, err := FactorLeastSquares(c.a)
		if sameBits(c.a.Data, in.Data) >= 0 {
			t.Fatalf("%s: input was modified", c.name)
		}
		_, qrErr := FactorQR(c.a)
		if qrErr == nil {
			if err != nil || !lsq.Exact() {
				t.Fatalf("%s: FactorQR accepts A, but err %v, exact %v", c.name, err, lsq != nil && lsq.Exact())
			}
			paths["qr"]++
		} else if slices.ContainsFunc(c.a.Data, func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }) {
			if !errors.Is(err, ErrSingular) {
				t.Fatalf("%s: non-finite A off the QR path: err %v, want ErrSingular", c.name, err)
			}
			paths["non-finite"]++
			continue
		} else if err != nil || lsq.Exact() {
			t.Fatalf("%s: err %v, exact %v: want the pseudo-inverse path", c.name, err, lsq != nil && lsq.Exact())
		} else if lsq.p.rank == 0 {
			paths["rank 0"]++
		} else {
			shape, rank := "tall", "full rank"
			if lsq.wide {
				shape = "wide"
			}
			if lsq.next != nil {
				rank = "rank-deficient"
			}
			paths[shape+", "+rank]++
		}
		if c.name == "wide-zero-row" && lsq.p.rank != 149 {
			t.Fatalf("wide-zero-row: rank %d, want 149", lsq.p.rank)
		}
		maxA := c.a.MaxAbs()
		for r := 0; r < 3; r++ {
			b := make([]float64, c.a.Rows)
			for i := range b {
				b[i] = s.Float64()*2 - 1
			}
			want, wantExact, wantErr := leastSquaresOracle(c.a, b)
			got, err := lsq.Solve(b)
			if err != nil {
				t.Fatalf("%s: solve: %v", c.name, err)
			}
			if lsq.Exact() {
				if wantErr != nil || !wantExact {
					t.Fatalf("%s: oracle err %v, exact %v on the QR path", c.name, wantErr, wantExact)
				}
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("%s rhs %d: x[%d] = %v, oracle %v", c.name, r, i, got[i], want[i])
				}
				continue
			}
			if c.name == "all-subnormal" {
				if slices.ContainsFunc(got, func(v float64) bool { return v != 0 }) {
					t.Errorf("all-subnormal rhs %d: x = %v, want 0", r, got)
				}
				continue
			}
			tol := 2e-6
			if lsq.wide && lsq.next != nil {
				tol = 5e-5
			}
			if wantErr == nil {
				if d := maxAbsVecDiff(got, want); !(d <= tol*max(1, maxAbs(want))) {
					t.Errorf("%s rhs %d: %g from the normal-equation oracle, tolerance %g", c.name, r, d, tol)
				}
			}
			if c.name == "wide-zero-row" {
				minNorm, err := LeastSquares(otherRows, append(slices.Clone(b[:70]), b[71:]...))
				if err != nil {
					t.Fatal(err)
				}
				if d := maxAbsVecDiff(got, minNorm); d > 1e-8*max(1, maxAbs(minNorm)) {
					t.Errorf("wide-zero-row rhs %d: %g from the minimum-norm solution of the other 149 rows", r, d)
				}
			}
			ax, _ := c.a.MulVec(got)
			for i := range ax {
				ax[i] -= b[i]
			}
			g, _ := c.a.T().MulVec(ax)
			if d, bound := maxAbs(g), 1e-9*maxA*(maxA*maxAbs(got)+maxAbs(b))*float64(c.a.Rows); !(d <= bound) {
				t.Errorf("%s rhs %d: ‖Aᵀ(Ax−b)‖∞ = %g, bound %g", c.name, r, d, bound)
			}
			if d := rowSpaceResidual(c.a, got); !(d <= 1e-9) {
				t.Errorf("%s rhs %d: %g of x lies outside A's row space", c.name, r, d)
			}
		}
	}
	for _, p := range []string{"qr", "non-finite", "rank 0", "wide, full rank", "wide, rank-deficient", "tall, rank-deficient"} {
		if paths[p] == 0 {
			t.Errorf("no case took the %s path", p)
		}
	}
	lsq, err := FactorLeastSquares(randMatrix(s, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lsq.Solve(make([]float64, 4)); err == nil {
		t.Error("short rhs: want a length error")
	}
	lsq, err = FactorLeastSquares(randMatrix(s, 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lsq.Solve(make([]float64, 5)); err == nil {
		t.Error("wide, long rhs: want a length error")
	}
}

func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = max(m, math.Abs(x))
	}
	return m
}
