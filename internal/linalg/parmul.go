package linalg

import (
	"fmt"

	"milr/internal/par"
)

// SolveMany solves A·x = b for every right-hand side on a bounded
// worker pool (0 is serial, negative means GOMAXPROCS; see
// par.Resolve), sharing one factorization. Solve is read-only on the
// factorization and each call owns its buffers, so the per-RHS results
// are identical to sequential solves. A nil rhs yields a nil solution
// slot (callers use this to skip holes without reindexing). The error
// for the lowest-indexed failing system is returned; remaining systems
// still run.
func (q *QR) SolveMany(rhs [][]float64, workers int) ([][]float64, error) {
	out := make([][]float64, len(rhs))
	err := par.ForErr(len(rhs), workers, func(i int) error {
		if rhs[i] == nil {
			return nil
		}
		x, err := q.Solve(rhs[i])
		if err != nil {
			return fmt.Errorf("linalg: rhs %d: %w", i, err)
		}
		out[i] = x
		return nil
	})
	return out, err
}
