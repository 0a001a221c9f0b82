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
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: pivoted QR requires rows ≥ cols, got %dx%d", a.Rows, a.Cols)
	}
	if rtol <= 0 {
		rtol = 1e-10
	}
	m, n := a.Rows, a.Cols
	qr := a.Clone()
	colNorm := func(col, fromRow int) float64 {
		var s float64
		for i := fromRow; i < m; i++ {
			s = math.Hypot(s, qr.At(i, col))
		}
		return s
	}
	var maxNorm float64
	for j := 0; j < n; j++ {
		if v := colNorm(j, 0); v > maxNorm {
			maxNorm = v
		}
	}
	if maxNorm == 0 {
		return &QRP{rank: 0}, nil
	}
	rank := 0
	for k := 0; k < n; k++ {
		// Pivot: bring the column with the largest remaining norm to k.
		best, bestNorm := k, colNorm(k, k)
		for j := k + 1; j < n; j++ {
			if v := colNorm(j, k); v > bestNorm {
				best, bestNorm = j, v
			}
		}
		if bestNorm <= rtol*maxNorm {
			break
		}
		if best != k {
			for i := 0; i < m; i++ {
				vk, vb := qr.At(i, k), qr.At(i, best)
				qr.Set(i, k, vb)
				qr.Set(i, best, vk)
			}
		}
		norm := bestNorm
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		rank = k + 1
	}
	return &QRP{rank: rank}, nil
}

// Rank returns the numerical rank detected during factorization.
func (q *QRP) Rank() int { return q.rank }

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
