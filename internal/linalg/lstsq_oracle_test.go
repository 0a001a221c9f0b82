package linalg

import (
	"fmt"
	"testing"

	"milr/internal/prng"
)

// LeastSquares, minNorm, regularize, RidgeSolve and SolveSquare are the
// one-shot solvers FactorLeastSquares replaced, verbatim: the engine called
// LeastSquares and, when it failed, RidgeSolve, factoring once per
// right-hand side. leastSquaresOracle is that composition, the bit
// oracle for FactorLeastSquares and Solve.

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

// SolveSquare is a convenience wrapper: factor once, solve once.
func SolveSquare(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
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

// TestFactorLeastSquaresMatchesOracle pins FactorLeastSquares and Solve
// bit-identical to leastSquaresOracle on tall, square and wide
// matrices (the QR and minimum-norm paths), duplicate and zero columns
// and the zero matrix (ridge after a failed QR), and a 150×160 matrix with a
// zero row (ridge after a failed minimum-norm LU), each solved for
// several right-hand sides from one factorization. Each path must be
// reached, or the test is vacuous.
func TestFactorLeastSquaresMatchesOracle(t *testing.T) {
	s := prng.New(4141)
	cases := oracleCases()
	for _, sh := range [][2]int{{3, 8}, {9, 27}, {1, 5}} {
		cases = append(cases, struct {
			name string
			a    *Matrix
		}{fmt.Sprintf("wide%dx%d", sh[0], sh[1]), randMatrix(s, sh[0], sh[1])})
	}
	// At 150 rows the LU tolerance (150·1e-14 of AAᵀ's scale) exceeds
	// the 1e-12 of it that regularize adds, so a zero row fails the LU.
	wideZeroRow := randMatrix(s, 150, 160)
	clear(wideZeroRow.Row(70))
	wideZero := NewMatrix(4, 9)
	cases = append(cases, struct {
		name string
		a    *Matrix
	}{"wide-zero-row", wideZeroRow}, struct {
		name string
		a    *Matrix
	}{"wide-all-zero", wideZero})
	paths := map[string]int{}
	for _, c := range cases {
		in := c.a.Clone()
		lsq, err := FactorLeastSquares(c.a)
		if sameBits(c.a.Data, in.Data) >= 0 {
			t.Fatalf("%s: input was modified", c.name)
		}
		for r := 0; r < 3; r++ {
			b := make([]float64, c.a.Rows)
			for i := range b {
				b[i] = s.Float64()*2 - 1
			}
			want, wantExact, wantErr := leastSquaresOracle(c.a, b)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: factor err %v, oracle %v", c.name, err, wantErr)
			}
			if err != nil {
				continue
			}
			got, err := lsq.Solve(b)
			if err != nil {
				t.Fatalf("%s: solve: %v", c.name, err)
			}
			if lsq.Exact() != wantExact {
				t.Fatalf("%s: Exact %v, oracle %v", c.name, lsq.Exact(), wantExact)
			}
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%s rhs %d: x[%d] = %v, oracle %v", c.name, r, i, got[i], want[i])
			}
		}
		if err != nil {
			continue
		}
		switch {
		case lsq.Exact():
			paths["qr"]++
		case lsq.ridge:
			paths["ridge"]++
			if c.a.Rows < c.a.Cols {
				paths["ridge after min-norm"]++
			}
		default:
			paths["min-norm"]++
		}
	}
	for _, p := range []string{"qr", "min-norm", "ridge", "ridge after min-norm"} {
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
}
