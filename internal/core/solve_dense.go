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
// a single CPU core. The solve regenerates each dummy row once per block
// of columns, not once per column, and subtracts that row's band of
// solved values from the whole block in one tensor.SubScaledBand call;
// only the gather, the divide and the keep test run in Go.

// denseDummyRowInto regenerates the values of row i of the banded dummy
// input matrix into buf, which must hold min(band, n) values, and
// returns buf[:width]: entry k sits in column i+k. The diagonal entry is
// made strictly dominant over the row's off-diagonal mass: a random
// *non-dominant* triangular matrix has exponentially growing condition
// number, and the back-substitution would amplify the float32 rounding
// of the stored dummy outputs into garbage within a few dozen steps.
// With row dominance the error amplification factor per step is < 1 and
// the solve is backward stable.
func denseDummyRowInto(buf []float64, seed, tag uint64, i, n, band int) []float64 {
	stream := prng.New(seed ^ prng.Mix(tag) ^ prng.Mix(uint64(i)+0x5bd1e995))
	width := band
	if width > n-i { // not i+width > n, which overflows for a band near MaxInt
		width = n - i
	}
	vals := buf[:width]
	var offMass float64
	for k := 1; k < width; k++ {
		vals[k] = 2*stream.Float64() - 1
		offMass += vals[k] * vals[k]
	}
	// Dominance with headroom: |d| ≥ 1 + √Σa² + random slack.
	d := 1 + stream.Float64() + math.Sqrt(offMass)
	if stream.Uint64()&1 == 0 {
		d = -d
	}
	vals[0] = d
	return vals
}

// denseDummyOutputs computes C_dummy = A_dummy·B at initialization time,
// with the current (golden) parameters. The result is the stored dummy
// output matrix (N rows × P columns).
//
// Dummy row i reads weight rows i … i+band−1. Those rows, widened to
// float64, sit in a ring of min(band, n) rows: walking i upward, each
// weight row is widened once, as it enters the band, at slot (row mod
// band). Each output element sums v_k·w[i+k][j] from +0 in ascending k,
// the whole row in one tensor.SubScaledBand call over the ring from
// slot i mod band with the negated values: acc − (−v)·w rounds exactly
// as acc + v·w does (the product, then the sum, never fused), so the
// stored bits are those of the scalar loop.
func denseDummyOutputs(d *nn.Dense, seed, tag uint64, band int) (*tensor.Tensor, error) {
	n, p := d.In(), d.Out()
	w := d.Params().Data() // row-major (N,P)
	out := tensor.New(n, p)
	od := out.Data()
	band = min(band, n)
	acc := make([]float64, p)
	buf := make([]float64, band)
	ring := make([]float64, band*p)
	widen := func(r int) {
		dst := ring[r%band*p:][:p]
		for j, v := range w[r*p : (r+1)*p] {
			dst[j] = float64(v)
		}
	}
	for r := 0; r < band-1; r++ {
		widen(r)
	}
	for i := 0; i < n; i++ {
		if r := i + band - 1; r < n {
			widen(r)
		}
		vals := denseDummyRowInto(buf, seed, tag, i, n, band)
		for k, v := range vals {
			vals[k] = -v
		}
		clear(acc)
		tensor.SubScaledBand(acc, ring, vals, i)
		for j, v := range acc {
			od[i*p+j] = float32(v)
		}
	}
	return out, nil
}

// solveDenseColumns re-solves the given parameter columns of the dense
// layer from the stored dummy outputs: for column j, the banded
// upper-triangular system A_dummy·x = C_dummy[:,j] is solved by back
// substitution, with the band the dummy outputs were built with.
// Entries within keepTol of the stored value keep the stored bits to
// avoid float churn in correct weights.
//
// Columns are independent systems — column j reads C_dummy[:,j] and
// writes w[:,j] only — so contiguous blocks of the column list solve
// concurrently on the engine's worker pool. A block walks the rows
// once, regenerating each dummy row once for all its columns, and keeps
// only the last band values of each column's x in a ring: row i reads
// x[i+1 … i+band−1] and nothing else. Per column the arithmetic is the
// single-column back substitution's (same start value, subtractions in
// ascending k, same divide), so the recovered bits do not depend on the
// blocking or the worker count. A row's subtractions, every k for the
// whole block, are one tensor.SubScaledBand call over the ring (k
// ascending, each product and difference rounded separately); the
// gather of the stored outputs, the divide by the diagonal and the keep
// test stay in Go.
//
// Every column is range-checked before any is solved: a bad column list
// leaves the layer untouched.
func solveDenseColumns(lp *layerPlan, cols []int, band int, seed uint64, workers int) error {
	d := lp.dense
	n, p := d.In(), d.Out()
	for _, j := range cols {
		if j < 0 || j >= p {
			return fmt.Errorf("core: dense column %d out of range [0,%d)", j, p)
		}
	}
	w := d.Params().Data()
	cd := lp.denseDummyOut.Data()
	band = min(band, n)
	par.Blocks(len(cols), workers, func(lo, hi int) {
		block := cols[lo:hi]
		bw := len(block)
		row := make([]float64, band)
		ring := make([]float64, band*bw) // x[i] of column block[b] at ring[(i mod band)·bw + b]
		acc := make([]float64, bw)
		for i := n - 1; i >= 0; i-- {
			vals := denseDummyRowInto(row, seed, lp.tag(tagDenseDummy), i, n, band)
			for b, j := range block {
				acc[b] = float64(cd[i*p+j])
			}
			slot := i % band
			tensor.SubScaledBand(acc, ring, vals[1:], slot+1)
			xs := ring[slot*bw : (slot+1)*bw]
			for b, j := range block {
				x := acc[b] / vals[0]
				xs[b] = x
				if relMismatch(x, float64(w[i*p+j]), keepTol) {
					w[i*p+j] = float32(x)
				}
			}
		}
	})
	return nil
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
