package core

import (
	"fmt"
	"math"

	"milr/internal/linalg"
	"milr/internal/nn"
	"milr/internal/par"
	"milr/internal/prng"
	"milr/internal/tensor"
)

// Dense-layer algebra (paper §IV-A): A(M,N)·B(N,P) = C(M,P).
//
// Parameter solving requires M ≥ N rows of golden input. Inference
// supplies M = 1, so MILR pads with pseudo-random dummy input rows whose
// outputs are computed once at initialization and stored — the dominant
// storage cost in the paper's Tables V/VII/IX.
//
// Deviation from the paper (see ARCHITECTURE.md, deviations): the paper's dummy
// input is unstructured random and the authors solved the resulting
// N-unknown systems with GPU lstsq. We draw the dummy input as a banded
// upper-triangular pseudo-random matrix: the storage cost is identical
// (the stored artifact is the dummy *output* matrix, N×P either way;
// the dummy input itself is regenerated from the seed), every column
// remains exactly solvable, and the solve costs O(N·band) per column on
// a single CPU core.

// denseDummyRow regenerates row i of the banded dummy input matrix:
// column indices and float64 values. The diagonal entry is made strictly
// dominant over the row's off-diagonal mass: a random *non-dominant*
// triangular matrix has exponentially growing condition number, and the
// back-substitution would amplify the float32 rounding of the stored
// dummy outputs into garbage within a few dozen steps. With row
// dominance the error amplification factor per step is < 1 and the solve
// is backward stable.
func denseDummyRow(seed, tag uint64, i, n, band int) ([]int, []float64) {
	stream := prng.New(seed ^ prng.Mix(tag) ^ prng.Mix(uint64(i)+0x5bd1e995))
	width := band
	if width > n-i { // not i+width > n: a loaded band may be near MaxInt
		width = n - i
	}
	cols := make([]int, width)
	vals := make([]float64, width)
	cols[0] = i
	var offMass float64
	for k := 1; k < width; k++ {
		cols[k] = i + k
		vals[k] = 2*stream.Float64() - 1
		offMass += vals[k] * vals[k]
	}
	// Dominance with headroom: |d| ≥ 1 + √Σa² + random slack.
	d := 1 + stream.Float64() + math.Sqrt(offMass)
	if stream.Uint64()&1 == 0 {
		d = -d
	}
	vals[0] = d
	return cols, vals
}

// denseDummyOutputs computes C_dummy = A_dummy·B at initialization time,
// with the current (golden) parameters. The result is the stored dummy
// output matrix (N rows × P columns).
func denseDummyOutputs(d *nn.Dense, seed, tag uint64, band int) (*tensor.Tensor, error) {
	n, p := d.In(), d.Out()
	w := d.Params().Data() // row-major (N,P)
	out := tensor.New(n, p)
	od := out.Data()
	acc := make([]float64, p)
	for i := 0; i < n; i++ {
		cols, vals := denseDummyRow(seed, tag, i, n, band)
		for j := range acc {
			acc[j] = 0
		}
		for k, c := range cols {
			v := vals[k]
			row := w[c*p : (c+1)*p]
			for j := 0; j < p; j++ {
				acc[j] += v * float64(row[j])
			}
		}
		for j := 0; j < p; j++ {
			od[i*p+j] = float32(acc[j])
		}
	}
	return out, nil
}

// solveDenseColumns re-solves the given parameter columns of the dense
// layer from the stored dummy outputs: for column j, the banded
// upper-triangular system A_dummy·x = C_dummy[:,j] is solved by back
// substitution. Entries within KeepTol of the stored value keep the
// stored bits to avoid float churn in correct weights.
//
// Columns are independent systems — column j reads C_dummy[:,j] and
// writes w[:,j] only — so they solve concurrently on the engine's
// worker pool with results identical to the sequential loop.
func solveDenseColumns(lp *layerPlan, cols []int, opts Options) error {
	d := lp.dense
	n, p := d.In(), d.Out()
	w := d.Params().Data()
	cd := lp.denseDummyOut.Data()
	return par.ForErr(len(cols), opts.workerPool(), func(ci int) error {
		j := cols[ci]
		if j < 0 || j >= p {
			return fmt.Errorf("core: dense column %d out of range [0,%d)", j, p)
		}
		x := make([]float64, n)
		for i := n - 1; i >= 0; i-- {
			rcols, rvals := denseDummyRow(opts.Seed, lp.denseTag, i, n, opts.DenseBand)
			acc := float64(cd[i*p+j])
			for k := 1; k < len(rcols); k++ {
				acc -= rvals[k] * x[rcols[k]]
			}
			x[i] = acc / rvals[0]
		}
		for i := 0; i < n; i++ {
			cur := float64(w[i*p+j])
			if relMismatch(x[i], cur, opts.KeepTol) {
				w[i*p+j] = float32(x[i])
			}
		}
		return nil
	})
}

// invertDense computes the input A from output C when P ≥ N: each row of
// A solves Bᵀ·aᵀ = cᵀ, an overdetermined least-squares problem sharing
// one factorization across rows (paper §IV-A-a). Dense layers with
// P < N receive an input checkpoint from the planner instead, so this
// path only runs when the shapes permit it.
func invertDense(d *nn.Dense, out *tensor.Tensor) (*tensor.Tensor, error) {
	n, p := d.In(), d.Out()
	if p < n {
		return nil, fmt.Errorf("core: dense %q with P=%d < N=%d is not invertible without a checkpoint", d.Name(), p, n)
	}
	shape := out.Shape()
	if len(shape) != 2 || shape[1] != p {
		return nil, fmt.Errorf("core: dense %q invert got output shape %v, want (M,%d)", d.Name(), shape, p)
	}
	m := shape[0]
	// Build Bᵀ (P×N) in float64.
	bt := linalg.NewMatrix(p, n)
	w := d.Params().Data()
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			bt.Set(j, i, float64(w[i*p+j]))
		}
	}
	qr, err := linalg.FactorQR(bt)
	if err != nil {
		return nil, fmt.Errorf("core: dense %q invert: %w", d.Name(), err)
	}
	in := tensor.New(m, n)
	id := in.Data()
	od := out.Data()
	rhs := make([]float64, p)
	for r := 0; r < m; r++ {
		for j := 0; j < p; j++ {
			rhs[j] = float64(od[r*p+j])
		}
		x, err := qr.Solve(rhs)
		if err != nil {
			return nil, fmt.Errorf("core: dense %q invert row %d: %w", d.Name(), r, err)
		}
		for i := 0; i < n; i++ {
			id[r*n+i] = float32(x[i])
		}
	}
	return in, nil
}
