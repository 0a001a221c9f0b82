package linalg

import (
	"fmt"
	"math"
	"slices"
)

// LSQ is a factored least-squares problem min‖A·x − b‖₂: one
// factorization of A serves any number of right-hand sides. Solve is
// read-only on it, so concurrent calls each return the bits a lone
// call would.
type LSQ struct {
	qr *QR // the exact path; nil on the pseudo-inverse path

	// The pseudo-inverse path (see factorPinv): p is the pivoted factor
	// of A, or of Aᵀ when wide, and next the pseudo-inverse of R's
	// leading rank rows when p is rank-deficient.
	p    *QRP
	wide bool
	next *LSQ
}

// FactorLeastSquares factors A under the whole least-squares policy:
//
//   - Rows ≥ Cols and FactorQR accepts A: Householder QR, the
//     numerically robust path for the overdetermined systems the conv
//     parameter solver produces (G² equations, F²Z unknowns). Only this
//     path is Exact.
//   - Otherwise (A wide, or rank-deficient to working precision): the
//     pseudo-inverse solution pinv(A)·b, the least-squares solution of
//     least norm, from a complete orthogonal decomposition built on the
//     pivoted factor the rank probe uses. That is the paper's lstsq
//     fallback for whole-layer corruption of partial-recoverable conv
//     layers (§V-B): "they attempt to find a least-square solution ...
//     as close as possible to the actual solution".
//
// On the second path a NaN or ±Inf in A is an error wrapping
// ErrSingular, not a solution: the rank cut scales with max|A|, which
// an infinite entry makes infinite, and a NaN entry spreads through
// every reflector.
func FactorLeastSquares(a *Matrix) (*LSQ, error) {
	if a.Rows >= a.Cols {
		if qr, err := FactorQR(a); err == nil {
			return &LSQ{qr: qr}, nil
		}
	}
	for i, v := range a.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("linalg: least squares: entry (%d,%d) is %v: %w", i/a.Cols, i%a.Cols, v, ErrSingular)
		}
	}
	if a.Rows < a.Cols {
		return factorPinv(a.T(), true), nil
	}
	return factorPinv(a, false), nil
}

// factorPinv factors f, which is A or, when wide, Aᵀ, as f·P = Q·R,
// cutting the rank where FactorQR would refuse a column (qrTol). With
// rank r, T the r leading rows of R and Q₁ the r leading columns of Q,
// A is Q₁·T·Pᵀ, whose pseudo-inverse is P·pinv(T)·Q₁ᵀ, or, when wide,
// P·Tᵀ·Q₁ᵀ, whose pseudo-inverse is Q₁·pinv(Tᵀ)·Pᵀ. When r is f's
// column count, pinv(T) is a back substitution and pinv(Tᵀ) a forward
// one; otherwise Tᵀ is factored in turn, for the transposed problem.
// Each level has fewer columns than the last, so the chain ends.
func factorPinv(f *Matrix, wide bool) *LSQ {
	p := factorQRPivot(f, 0, qrTol(f))
	l := &LSQ{p: p, wide: wide}
	if r := p.rank; r < f.Cols {
		tt := NewMatrix(f.Cols, r)
		for i := 0; i < r; i++ {
			tt.Set(i, i, p.rdia[i])
			for j := i + 1; j < f.Cols; j++ {
				tt.Set(j, i, p.qr.At(i, j))
			}
		}
		l.next = factorPinv(tt, !wide)
	}
	return l
}

// Exact reports whether Solve returns the unique least-squares
// solution: the QR path, not the pseudo-inverse best effort.
func (l *LSQ) Exact() bool { return l.qr != nil }

// Solve returns the least-squares solution for right-hand side b, which
// must hold one value per row of A.
func (l *LSQ) Solve(b []float64) ([]float64, error) {
	if l.qr != nil {
		return l.qr.Solve(b)
	}
	rows := l.p.qr.Rows
	if l.wide {
		rows = l.p.qr.Cols
	}
	if len(b) != rows {
		return nil, fmt.Errorf("linalg: least-squares rhs length %d, want %d", len(b), rows)
	}
	return l.solve(b), nil
}

// solve returns pinv(A)·b as factorPinv lays it out; b is only read.
func (l *LSQ) solve(b []float64) []float64 {
	p, r := l.p, l.p.rank
	if l.wide {
		// x = Q₁·pinv(Tᵀ)·Pᵀb.
		c := make([]float64, len(p.perm))
		for k, j := range p.perm {
			c[k] = b[j]
		}
		if l.next != nil {
			c = l.next.solve(c)
		} else {
			forwardSub(p.qr, p.rdia, c)
		}
		x := make([]float64, p.qr.Rows)
		copy(x, c)
		for k := r - 1; k >= 0; k-- {
			reflect(p.qr, k, x)
		}
		return x
	}
	// x = P·pinv(T)·(Qᵀb)[:r].
	c := slices.Clone(b)
	for k := 0; k < r; k++ {
		reflect(p.qr, k, c)
	}
	c = c[:r]
	if l.next != nil {
		c = l.next.solve(c)
	} else {
		backSub(p.qr, p.rdia, c, c)
	}
	x := make([]float64, len(p.perm))
	for k, j := range p.perm {
		x[j] = c[k]
	}
	return x
}

// qrTol is the column norm below which FactorQR refuses a: Rows·1e-14
// of its largest magnitude, or 1e-300 when that is 0.
func qrTol(a *Matrix) float64 {
	tol := a.MaxAbs() * float64(a.Rows) * 1e-14
	if tol == 0 {
		tol = 1e-300
	}
	return tol
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
	tol := qrTol(a)
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
	// y ← Qᵀ·y, then R·x = y[:n].
	for k := 0; k < n; k++ {
		reflect(q.qr, k, y)
	}
	x := make([]float64, n)
	backSub(q.qr, q.rdia, y[:n], x)
	return x, nil
}

// reflect applies to y the Householder reflector stored in column k of
// qr, rows k…, as householderVector leaves it. A reflector is its own
// transpose and inverse.
func reflect(qr *Matrix, k int, y []float64) {
	var s float64
	for i := k; i < qr.Rows; i++ {
		s += qr.At(i, k) * y[i]
	}
	s = -s / qr.At(k, k)
	for i := k; i < qr.Rows; i++ {
		y[i] += s * qr.At(i, k)
	}
}

// backSub solves R·x = y for R's leading len(y) rows and columns: R's
// strict upper part in qr, its diagonal in rdia. x may be y.
func backSub(qr *Matrix, rdia, y, x []float64) {
	for i := len(y) - 1; i >= 0; i-- {
		acc := y[i]
		for j := i + 1; j < len(y); j++ {
			acc -= qr.At(i, j) * x[j]
		}
		x[i] = acc / rdia[i]
	}
}

// forwardSub solves Rᵀ·y = c in place for R's leading len(c) rows and
// columns, laid out as backSub's.
func forwardSub(qr *Matrix, rdia, c []float64) {
	for i := range c {
		acc := c[i]
		for j := 0; j < i; j++ {
			acc -= qr.At(j, i) * c[j]
		}
		c[i] = acc / rdia[i]
	}
}
