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
// "partial recoverable" (Tables IV/VI/VIII). It is only a rank probe:
// the factors are not kept.
type QRP struct {
	rank int
}

// FactorQRPivot factors an m×n matrix with m ≥ n. Columns whose residual
// norm falls below rtol times the largest initial column norm stop the
// elimination; the count of processed columns is the numerical rank.
func FactorQRPivot(a *Matrix, rtol float64) (*QRP, error) {
	_, rank, err := factorQRPivot(a, rtol)
	if err != nil {
		return nil, err
	}
	return &QRP{rank: rank}, nil
}

// factorQRPivot is FactorQRPivot returning the factored matrix too, so
// tests can compare its bits. Every pass walks the rows in ascending
// order (see the package doc): the remaining column norms live in one
// vector, folded with hypotFold (math.Hypot, bit for bit) over rows
// k+1… as the step-k update writes them, which is exactly a fresh fold
// down each column. A norm is +0 or an earlier fold, so its sign bit is
// clear, as hypotFold needs.
func factorQRPivot(a *Matrix, rtol float64) (*Matrix, int, error) {
	if a.Rows < a.Cols {
		return nil, 0, fmt.Errorf("linalg: pivoted QR requires rows ≥ cols, got %dx%d", a.Rows, a.Cols)
	}
	if rtol <= 0 {
		rtol = 1e-10
	}
	m, n := a.Rows, a.Cols
	qr := a.Clone()
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
		return qr, 0, nil
	}
	s := make([]float64, n)
	rank := 0
	for k := 0; k < n; k++ {
		// Pivot: bring the column with the largest remaining norm to k.
		best, bestNorm := k, norms[k]
		for j := k + 1; j < n; j++ {
			if v := norms[j]; v > bestNorm {
				best, bestNorm = j, v
			}
		}
		if bestNorm <= rtol*maxNorm {
			break
		}
		if best != k {
			for i := 0; i < m; i++ {
				row := qr.Row(i)
				row[k], row[best] = row[best], row[k]
			}
			norms[k], norms[best] = norms[best], norms[k]
		}
		norm := bestNorm
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		pivotStep(qr, k, norm, s, norms)
		rank = k + 1
	}
	return qr, rank, nil
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
