package linalg

import (
	"fmt"
	"math"
)

// LSQ is a factored least-squares problem min‖A·x − b‖₂: one
// factorization of A serves any number of right-hand sides. Solve is
// read-only on it, so concurrent calls each return the bits a lone
// call would.
type LSQ struct {
	qr *QR     // the QR path; nil otherwise
	at *Matrix // Aᵀ, for the normal-equation paths
	lu *LU     // AAᵀ + εI (minimum norm) or AᵀA + λI (ridge)
	// ridge: Solve maps b through Aᵀ before the LU solve; minimum norm
	// maps the LU solution through Aᵀ after it.
	ridge bool
}

// FactorLeastSquares factors A under the whole least-squares policy:
//
//   - Rows ≥ Cols: Householder QR, the numerically robust path for the
//     overdetermined systems the conv parameter solver produces (G²
//     equations, F²Z unknowns). Only this path is Exact.
//   - Rows < Cols: the minimum-norm solution x = Aᵀ(AAᵀ + εI)⁻¹b, the
//     paper's lstsq fallback for whole-layer corruption of
//     partial-recoverable conv layers (§V-B): "they attempt to find a
//     least-square solution ... as close as possible to the actual
//     solution".
//   - Whenever that first factorization fails (A rank-deficient to
//     working precision), the ridge solution of (AᵀA + λI)x = Aᵀb.
//
// It fails only when the ridge factorization fails too.
func FactorLeastSquares(a *Matrix) (*LSQ, error) {
	l := &LSQ{}
	var err error
	if a.Rows >= a.Cols {
		if l.qr, err = FactorQR(a); err == nil {
			return l, nil
		}
	}
	l.at = a.T()
	if a.Rows < a.Cols {
		var aat *Matrix
		if aat, err = a.Mul(l.at); err != nil {
			return nil, err
		}
		addRidge(aat, 1e-12)
		if l.lu, err = FactorLU(aat); err == nil {
			return l, nil
		}
	}
	ata, err := l.at.Mul(a)
	if err != nil {
		return nil, err
	}
	addRidge(ata, 1e-10)
	if l.lu, err = FactorLU(ata); err != nil {
		return nil, fmt.Errorf("linalg: least squares: %w", err)
	}
	l.ridge = true
	return l, nil
}

// Exact reports whether Solve returns the unique least-squares
// solution: the QR path, not a minimum-norm or ridge best effort.
func (l *LSQ) Exact() bool { return l.qr != nil }

// Solve returns the least-squares solution for right-hand side b, which
// must hold one value per row of A.
func (l *LSQ) Solve(b []float64) ([]float64, error) {
	switch {
	case l.qr != nil:
		return l.qr.Solve(b)
	case l.ridge:
		rhs, err := l.at.MulVec(b)
		if err != nil {
			return nil, err
		}
		return l.lu.Solve(rhs)
	default:
		y, err := l.lu.Solve(b)
		if err != nil {
			return nil, err
		}
		return l.at.MulVec(y)
	}
}

// addRidge adds rel times the square matrix's largest magnitude (1e-12
// for a zero matrix) to its diagonal, so severely rank-deficient normal
// equations (e.g. a conv sub-region whose padding zeroes entire taps)
// still produce the best-effort solution the paper describes instead of
// failing outright.
func addRidge(m *Matrix, rel float64) {
	eps := m.MaxAbs() * rel
	if eps == 0 {
		eps = 1e-12
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += eps
	}
}

// QR is a Householder QR factorization A = Q·R for Rows ≥ Cols.
type QR struct {
	qr   *Matrix   // Householder vectors below the diagonal, R on/above.
	rdia []float64 // Diagonal of R.
}

// FactorQR computes the factorization of an m×n matrix with m ≥ n.
func FactorQR(a *Matrix) (*QR, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: QR requires rows ≥ cols, got %dx%d", a.Rows, a.Cols)
	}
	m, n := a.Rows, a.Cols
	qr := a.Clone()
	rdia := make([]float64, n)
	tol := a.MaxAbs() * float64(m) * 1e-14
	if tol == 0 {
		tol = 1e-300
	}
	for k := 0; k < n; k++ {
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if norm < tol {
			return nil, fmt.Errorf("column %d below tolerance %.3e: %w", k, tol, ErrSingular)
		}
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		// rdia[k+1:] is not written yet: it holds the step's s_j.
		householderStep(qr, k, norm, rdia)
		rdia[k] = -norm
	}
	return &QR{qr: qr, rdia: rdia}, nil
}

// householderStep turns column k, rows k…, into the Householder vector
// of the reflector that zeroes it below the diagonal, given the column's
// signed norm, and applies that reflector to columns k+1…. The dot
// products s_j = Σ_i a_ik·a_ij (householderVector) and the update
// a_ij += s_j·a_ik each sweep rows i = k… in ascending order, so every
// column sees the same products and sums in the same order as a walk
// down that column. The s_j live in s[k+1:], scratch the caller
// provides; s[:k+1] is not touched.
func householderStep(qr *Matrix, k int, norm float64, s []float64) {
	sj := householderVector(qr, k, norm, s)
	for i := k; i < qr.Rows; i++ {
		row := qr.Row(i)
		aik, rj := row[k], row[k+1:]
		for j, v := range rj {
			rj[j] = v + sj[j]*aik
		}
	}
}

// householderVector is the first half of a Householder step (see
// householderStep): it scales column k, rows k…, by 1/norm, adds 1 to
// the diagonal, and returns s[k+1:] holding the reflector's scaled dot
// products s_j = −(Σ_i a_ik·a_ij)/a_kk, summed over rows i = k… in
// ascending order.
func householderVector(qr *Matrix, k int, norm float64, s []float64) []float64 {
	m, n := qr.Rows, qr.Cols
	for i := k; i < m; i++ {
		qr.Set(i, k, qr.At(i, k)/norm)
	}
	qr.Set(k, k, qr.At(k, k)+1)
	sj := s[k+1 : n]
	clear(sj)
	for i := k; i < m; i++ {
		row := qr.Row(i)
		aik, rj := row[k], row[k+1:]
		for j, v := range rj {
			sj[j] += aik * v
		}
	}
	akk := qr.At(k, k)
	for j := range sj {
		sj[j] = -sj[j] / akk
	}
	return sj
}

// Solve returns the least-squares solution of A·x = b.
func (q *QR) Solve(b []float64) ([]float64, error) {
	m, n := q.qr.Rows, q.qr.Cols
	if len(b) != m {
		return nil, fmt.Errorf("linalg: QR solve rhs length %d, want %d", len(b), m)
	}
	y := make([]float64, m)
	copy(y, b)
	// Apply Householder reflections: y ← Qᵀ·y.
	for k := 0; k < n; k++ {
		var s float64
		for i := k; i < m; i++ {
			s += q.qr.At(i, k) * y[i]
		}
		s = -s / q.qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * q.qr.At(i, k)
		}
	}
	// Back-substitute R·x = y[:n].
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		acc := y[i]
		for j := i + 1; j < n; j++ {
			acc -= q.qr.At(i, j) * x[j]
		}
		x[i] = acc / q.rdia[i]
	}
	return x, nil
}
