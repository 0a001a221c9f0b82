package linalg

import (
	"fmt"
	"math"
)

// LU holds an in-place LU factorization with partial pivoting of a square
// matrix: P·A = L·U. One factorization serves any number of right-hand
// sides, which matters for MILR because a dense layer solves the same
// input matrix against every parameter column, and a conv layer solves
// the same im2col matrix against every filter (paper §IV).
type LU struct {
	lu   *Matrix
	piv  []int
	sign int
}

// FactorLU computes the factorization. It returns ErrSingular when a
// pivot falls below a scale-aware threshold.
func FactorLU(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: LU requires square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	tol := luTolerance(a)
	for k := 0; k < n; k++ {
		// Partial pivoting: pick the largest magnitude in column k.
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
			sign = -sign
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
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

func luTolerance(a *Matrix) float64 {
	scale := a.MaxAbs()
	if scale == 0 {
		scale = 1
	}
	return scale * float64(a.Rows) * 1e-14
}

// Solve returns x such that A·x = b.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: LU solve rhs length %d, want %d", len(b), n)
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		var acc float64
		for j := 0; j < i; j++ {
			acc += row[j] * x[j]
		}
		x[i] -= acc
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		acc := x[i]
		for j := i + 1; j < n; j++ {
			acc -= row[j] * x[j]
		}
		x[i] = acc / row[i]
	}
	return x, nil
}
