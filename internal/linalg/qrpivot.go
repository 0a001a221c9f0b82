package linalg

import (
	"fmt"
	"math"
)

// QRP is a rank-revealing Householder QR factorization with column
// pivoting: A·P = Q·R. MILR uses it at initialization to probe whether a
// convolution layer's golden-input im2col matrix has full column rank —
// the condition for whole-filter recovery. Inputs that passed through
// earlier convolutions have rank bounded by the composed receptive
// field, which is exactly why the paper's interior conv layers are only
// "partial recoverable" (Tables IV/VI/VIII). FactorLeastSquares solves
// every system QR refuses through the same factor.
type QRP struct {
	// qr holds, in its first rank columns, the Householder vectors on
	// and below the diagonal (as QR's does) and R's strictly upper part
	// above it; rows rank… of the columns past rank hold the residual
	// block the elimination stopped at.
	qr   *Matrix
	rdia []float64 // R's diagonal; entries rank… are not set
	perm []int     // column k of A·P is column perm[k] of A
	rank int
}

// FactorQRPivot factors an m×n matrix with m ≥ n. Columns whose residual
// norm falls below rtol times the largest initial column norm stop the
// elimination; the count of processed columns is the numerical rank. A
// non-positive rtol means 1e-10.
func FactorQRPivot(a *Matrix, rtol float64) (*QRP, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: pivoted QR requires rows ≥ cols, got %dx%d", a.Rows, a.Cols)
	}
	if rtol <= 0 {
		rtol = 1e-10
	}
	return factorQRPivot(a, rtol, 0), nil
}

// factorQRPivot factors a (m ≥ n) until the largest remaining column
// norm is at most rtol times the largest initial one, or below tol.
// Every pass walks the rows in ascending order (see the package doc):
// the remaining column norms live in one vector, folded with hypotFold
// (math.Hypot, bit for bit) over rows k+1… as the step-k update writes
// them, which is exactly a fresh fold down each column. A norm is +0 or
// an earlier fold, so its sign bit is clear, as hypotFold needs.
func factorQRPivot(a *Matrix, rtol, tol float64) *QRP {
	m, n := a.Rows, a.Cols
	f := &QRP{qr: a.Clone(), rdia: make([]float64, n), perm: make([]int, n)}
	qr := f.qr
	for j := range f.perm {
		f.perm[j] = j
	}
	norms := make([]float64, n)
	for i := 0; i < m; i++ {
		row := qr.Row(i)
		for j, v := range row {
			norms[j] = hypotFold(norms[j], math.Abs(v))
		}
	}
	var maxNorm float64
	for _, v := range norms {
		if v > maxNorm {
			maxNorm = v
		}
	}
	if maxNorm == 0 {
		return f
	}
	s := make([]float64, n)
	for k := 0; k < n; k++ {
		// Pivot: bring the column with the largest remaining norm to k.
		best, bestNorm := k, norms[k]
		for j := k + 1; j < n; j++ {
			if v := norms[j]; v > bestNorm {
				best, bestNorm = j, v
			}
		}
		if bestNorm <= rtol*maxNorm || bestNorm < tol {
			break
		}
		if best != k {
			for i := 0; i < m; i++ {
				row := qr.Row(i)
				row[k], row[best] = row[best], row[k]
			}
			norms[k], norms[best] = norms[best], norms[k]
			f.perm[k], f.perm[best] = f.perm[best], f.perm[k]
		}
		norm := bestNorm
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		pivotStep(qr, k, norm, s, norms)
		f.rdia[k] = -norm
		f.rank = k + 1
	}
	return f
}

// pivotStep is householderStep for the pivoted factor: in the same one
// sweep of rows k+1… that applies the reflector, it folds each updated
// value into norms[j], so on return norms[j] is the norm of column j's
// rows k+1…, the next step's pivot norm.
func pivotStep(qr *Matrix, k int, norm float64, s, norms []float64) {
	sj := householderVector(qr, k, norm, s)
	row := qr.Row(k)
	aik, rj := row[k], row[k+1:]
	for j, v := range rj {
		rj[j] = v + sj[j]*aik
	}
	nj := norms[k+1 : qr.Cols]
	clear(nj)
	for i := k + 1; i < qr.Rows; i++ {
		row := qr.Row(i)
		aik, rj := row[k], row[k+1:]
		rj, nj := rj[:len(sj)], nj[:len(sj)] // no bounds checks below
		for j, v := range rj {
			v += sj[j] * aik
			rj[j] = v
			nj[j] = hypotFold(nj[j], math.Abs(v))
		}
	}
}

// Rank returns the numerical rank detected during factorization.
func (q *QRP) Rank() int { return q.rank }
