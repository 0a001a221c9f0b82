package linalg

import (
	"math"
	"testing"
)

func fillSeq(m *Matrix, seed float64) {
	v := seed
	for i := range m.Data {
		// Deterministic, non-trivial values with mixed signs.
		v = math.Mod(v*1.7+0.31, 2.0)
		m.Data[i] = v - 1.0
	}
}

func TestSolveManyMatchesSequential(t *testing.T) {
	n := 12
	a := NewMatrix(n+4, n)
	fillSeq(a, 0.3)
	// Diagonal boost keeps the system comfortably full-rank.
	for i := 0; i < n; i++ {
		a.Data[i*n+i] += 3
	}
	qr, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([][]float64, 6)
	for r := range rhs {
		if r == 3 {
			continue // hole: stays nil
		}
		b := make([]float64, n+4)
		for i := range b {
			b[i] = float64((r+1)*(i+2)%7) - 3
		}
		rhs[r] = b
	}
	var want [][]float64
	for _, b := range rhs {
		if b == nil {
			want = append(want, nil)
			continue
		}
		x, err := qr.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, x)
	}
	for _, workers := range []int{1, 2, 4} {
		got, err := qr.SolveMany(rhs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for r := range want {
			if (got[r] == nil) != (want[r] == nil) {
				t.Fatalf("workers %d: rhs %d nil mismatch", workers, r)
			}
			for i := range want[r] {
				if got[r][i] != want[r][i] {
					t.Fatalf("workers %d: rhs %d element %d differs", workers, r, i)
				}
			}
		}
	}
}
