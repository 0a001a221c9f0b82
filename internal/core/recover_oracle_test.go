package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"milr/internal/linalg"
	"milr/internal/par"
	"milr/internal/prng"
	"milr/internal/tensor"
)

// The per-layer reference recovery pipeline, kept as the oracle the
// batched segment sweeps (segment.go) are pinned bit-identical against.
// Every flagged layer fetches its own golden pair from the nearest
// checkpoints and verifies with a dedicated probe pass. It lives in a
// _test.go file so that no user, flag or persisted blob can select it.
// The golden-pair and solve calls are the product code of the commit
// that retired Options.SequentialRecovery; the verification was edited
// since, and is the oracle's own: verifyConv multiplies its own
// (1, F²Z) PRNG row into the filters, recoverDense probes its own
// (1, In) PRNG row,
// recoverBiasSequential checks the parameter sum, and each compares
// with the stored checkpoint itself (oracleMismatches) rather than
// through the engine's one scrub (detectLayer), so the equivalence
// tests cross-check that scrub against an independent path.

// selfHealOracle is SelfHeal with the recovery phase run by the oracle:
// detection, then recoverSequential over the sorted findings, as one
// cycle under the engine lock.
func (pr *Protector) selfHealOracle() (*DetectionReport, *RecoveryReport, error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	ctx := context.Background()
	det, err := pr.detectLocked(ctx)
	if err != nil || !det.HasErrors() {
		return det, &RecoveryReport{}, err
	}
	findings := append([]LayerFinding(nil), det.Findings...)
	sort.Slice(findings, func(i, j int) bool { return findings[i].Layer < findings[j].Layer })
	rec, err := pr.recoverSequential(ctx, findings)
	return det, rec, err
}

// recoverSequential is the reference recovery pipeline: each flagged
// layer fetches its own golden pair from the nearest checkpoints and
// verifies with a dedicated probe pass. Kept as the baseline the
// batched pipeline is pinned bit-identical against (equivalence tests);
// findings must be sorted by layer.
func (pr *Protector) recoverSequential(ctx context.Context, findings []LayerFinding) (*RecoveryReport, error) {
	out := &RecoveryReport{}
	for _, f := range findings {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lp := pr.plan.layers[f.Layer]
		var res RecoveryResult
		var err error
		switch lp.role {
		case roleConv:
			res, err = pr.recoverConv(lp, f)
		case roleDense:
			res, err = pr.recoverDense(lp, f)
		case roleBias:
			res, err = pr.recoverBiasSequential(lp)
		default:
			err = fmt.Errorf("core: finding for non-parameterized layer %d", f.Layer)
		}
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, res)
	}
	return out, nil
}

// recoverConv is the sequential-path conv recovery: fetch the golden
// pair, solve, verify with a dedicated probe pass.
func (pr *Protector) recoverConv(lp *layerPlan, f LayerFinding) (RecoveryResult, error) {
	goldenIn, err := pr.goldenInputOf(lp.idx)
	if err != nil {
		return RecoveryResult{Layer: lp.idx, Name: f.Name}, err
	}
	goldenOut, err := pr.goldenOutputOf(lp.idx)
	if err != nil {
		return RecoveryResult{Layer: lp.idx, Name: f.Name}, err
	}
	res, err := pr.solveConvFinding(lp, f, goldenIn, goldenOut)
	if err != nil || res.Status == Failed {
		return res, err
	}
	res.Status = pr.verifyConv(lp)
	return res, nil
}

// recoverDense recovers a dense layer that no golden propagation has
// to pass through: solve, then verify with a dedicated probe pass.
func (pr *Protector) recoverDense(lp *layerPlan, f LayerFinding) (RecoveryResult, error) {
	res := pr.solveDenseFinding(lp, f)
	if res.Status == Failed {
		return res, nil
	}
	out, err := lp.dense.Forward(prng.TensorFor(pr.opts.Seed, lp.tag(tagDetect), 1, lp.dense.In()))
	if err != nil {
		return res, fmt.Errorf("core: detect dense layer %d: %w", lp.idx, err)
	}
	if still := oracleMismatches(lp, out.Data()); still > 0 {
		res.Status = Approximate
		res.Detail = fmt.Sprintf("%d columns still mismatch", still)
	} else {
		res.Status = Recovered
	}
	return res, nil
}

// verifyConv runs the conv layer's dedicated post-recovery probe pass
// (the sequential path). It builds the row rule itself, the layer's
// (1, F²Z) PRNG row times its filters reshaped to (F²Z, Y) through
// tensor.MatMul, rather than calling probe, so the equivalence tests
// cross-check the pipeline's scrub against an independent path.
func (pr *Protector) verifyConv(lp *layerPlan) RecoveryStatus {
	c := lp.conv
	taps := c.FilterSize() * c.FilterSize() * c.InChannels()
	w, err := c.Params().Reshape(taps, c.Filters())
	if err != nil {
		return Failed
	}
	out, err := tensor.MatMul(prng.TensorFor(pr.opts.Seed, lp.tag(tagDetect), 1, taps), w)
	if err != nil {
		return Failed
	}
	if oracleMismatches(lp, out.Data()) > 0 {
		return Approximate
	}
	return Recovered
}

// oracleMismatches counts the probe values that differ from the
// layer's stored partial checkpoint beyond the detection tolerance.
func oracleMismatches(lp *layerPlan, probe []float32) int {
	n := 0
	for k, v := range lp.partial.Data() {
		if relMismatch(float64(probe[k]), float64(v), detectTol) {
			n++
		}
	}
	return n
}

// recoverBiasSequential fetches the golden pair for recoverBias and
// verifies the parameter sum.
func (pr *Protector) recoverBiasSequential(lp *layerPlan) (RecoveryResult, error) {
	goldenIn, err := pr.goldenInputOf(lp.idx)
	if err != nil {
		return RecoveryResult{Layer: lp.idx, Name: pr.model.Layer(lp.idx).Name()}, err
	}
	goldenOut, err := pr.goldenOutputOf(lp.idx)
	if err != nil {
		return RecoveryResult{Layer: lp.idx, Name: pr.model.Layer(lp.idx).Name()}, err
	}
	res, err := pr.recoverBias(lp, goldenIn, goldenOut)
	if err != nil {
		return res, err
	}
	if relMismatch(lp.bias.Params().Sum(), lp.biasSum, detectTol) {
		res.Status = Approximate
		res.Detail = "parameter sum still mismatches"
	} else {
		res.Status = Recovered
	}
	return res, nil
}

// goldenInputOf propagates the golden tensor from the nearest preceding
// boundary to layer i's input, using recovery-mode forward passes. If
// layers in between hold erroneous parameters the result is corrupted
// accordingly — exactly the degradation mechanism behind the paper's
// high-RBER outliers (§V-B).
func (pr *Protector) goldenInputOf(i int) (*tensor.Tensor, error) {
	b := pr.plan.precedingBoundary(i)
	cur, err := pr.boundaryTensor(b)
	if err != nil {
		return nil, err
	}
	return pr.model.ForwardRange(b, i, cur, true)
}

// goldenOutputOf inverts the golden tensor from the nearest succeeding
// boundary back to layer i's output.
func (pr *Protector) goldenOutputOf(i int) (*tensor.Tensor, error) {
	b := pr.plan.succeedingBoundary(i)
	cur, err := pr.boundaryTensor(b)
	if err != nil {
		return nil, err
	}
	for j := b - 1; j > i; j-- {
		cur, err = pr.invertLayer(j, cur)
		if err != nil {
			return nil, fmt.Errorf("core: invert layer %d (%s): %w", j, pr.model.Layer(j).Name(), err)
		}
	}
	return cur, nil
}

// solveDenseColumnsOracle is the per-column dense solve that the blocked
// solveDenseColumns replaced, kept as the oracle
// TestDenseSolveMatchesOracle pins it bit-identical against: every
// column solves alone, regenerating every dummy row itself through the
// allocating denseDummyRow. The bodies are the product code of the
// commit before the blocked solve, unedited but for the function name
// and the band, tolerance, seed and worker count, which were Options
// fields then.
func solveDenseColumnsOracle(lp *layerPlan, cols []int, band int, seed uint64, workers int) error {
	d := lp.dense
	n, p := d.In(), d.Out()
	w := d.Params().Data()
	cd := lp.denseDummyOut.Data()
	return par.ForErr(len(cols), workers, func(ci int) error {
		j := cols[ci]
		if j < 0 || j >= p {
			return fmt.Errorf("core: dense column %d out of range [0,%d)", j, p)
		}
		x := make([]float64, n)
		for i := n - 1; i >= 0; i-- {
			rcols, rvals := denseDummyRow(seed, lp.tag(tagDenseDummy), i, n, band)
			acc := float64(cd[i*p+j])
			for k := 1; k < len(rcols); k++ {
				acc -= rvals[k] * x[rcols[k]]
			}
			x[i] = acc / rvals[0]
		}
		for i := 0; i < n; i++ {
			cur := float64(w[i*p+j])
			if relMismatch(x[i], cur, keepTol) {
				w[i*p+j] = float32(x[i])
			}
		}
		return nil
	})
}

// solveConvFull is the whole-filter conv solve that the suspect-set
// solve absorbed, kept as the oracle TestConvFullSolveMatchesOracle pins
// a full-mode heal bit-identical against. The body is the product code
// of the commit before, unedited but for the worker count, an Options
// field then: one QR factorization of the im2col matrix serves every
// listed filter, and the per-filter solves run on the engine's worker
// pool.
func solveConvFull(lp *layerPlan, goldenIn, goldenOut *tensor.Tensor, filters []int, workers int) error {
	c := lp.conv
	a, err := lowerF64(c, goldenIn)
	if err != nil {
		return err
	}
	taps := a.Cols
	if a.Rows < taps {
		return fmt.Errorf("core: conv %q full solve needs G²=%d ≥ F²Z=%d", c.Name(), a.Rows, taps)
	}
	qr, err := linalg.FactorQR(a)
	if err != nil {
		return fmt.Errorf("core: conv %q full solve: %w", c.Name(), err)
	}
	y := c.Filters()
	od := goldenOut.Data()
	if goldenOut.NumElements() != a.Rows*y {
		return fmt.Errorf("core: conv %q golden output has %d values, want %d", c.Name(), goldenOut.NumElements(), a.Rows*y)
	}
	w := c.Params().Data()
	return par.ForErr(len(filters), workers, func(fi int) error {
		k := filters[fi]
		if k < 0 || k >= y {
			return fmt.Errorf("core: conv %q filter %d out of range [0,%d)", c.Name(), k, y)
		}
		rhs := make([]float64, a.Rows)
		for g := 0; g < a.Rows; g++ {
			rhs[g] = float64(od[g*y+k])
		}
		x, err := qr.Solve(rhs)
		if err != nil {
			return fmt.Errorf("core: conv %q solve filter %d: %w", c.Name(), k, err)
		}
		for t := 0; t < taps; t++ {
			cur := float64(w[t*y+k])
			if relMismatch(x[t], cur, keepTol) {
				w[t*y+k] = float32(x[t])
			}
		}
		return nil
	})
}

// solveConvSelectiveOracle is the selective conv solve that the Aᵀ
// layout replaced, kept as the oracle TestConvSelectiveSolveMatchesOracle
// pins the suspect-set solve bit-identical against: the golden input
// lowered into A, each filter's residual a scalar dot product along A's
// rows, and one factorization per filter. The body is the product code
// of the commit before the Aᵀ layout, edited only in the function name,
// the worker count (an Options field then) and the solve: the one-shot
// least-squares solve became one linalg.FactorLeastSquares, the solver
// both pipelines share, which TestFactorLeastSquaresMatchesOracle
// checks on its own.
func solveConvSelectiveOracle(lp *layerPlan, goldenIn, goldenOut *tensor.Tensor, suspects map[int][]int, workers int) (exact, approximate int, err error) {
	c := lp.conv
	a, err := lowerF64(c, goldenIn)
	if err != nil {
		return 0, 0, err
	}
	y := c.Filters()
	taps := a.Cols
	od := goldenOut.Data()
	if goldenOut.NumElements() != a.Rows*y {
		return 0, 0, fmt.Errorf("core: conv %q golden output has %d values, want %d", c.Name(), goldenOut.NumElements(), a.Rows*y)
	}
	w := c.Params().Data()
	// Deterministic filter order keeps runs reproducible.
	keys := make([]int, 0, len(suspects))
	for k := range suspects {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	// Independent filters solve concurrently: filter k only reads and
	// writes column k of the weight matrix (w[t*y+k]), so the writes
	// are disjoint and the per-filter outcomes independent of worker
	// count. Outcomes land in per-filter slots; the exact/approximate
	// tallies are summed in key order afterwards.
	uniqueSlot := make([]bool, len(keys))
	solvedSlot := make([]bool, len(keys))
	err = par.ForErr(len(keys), workers, func(ki int) error {
		k := keys[ki]
		e := suspects[k]
		if len(e) == 0 {
			return nil
		}
		inE := make([]bool, taps)
		for _, t := range e {
			if t < 0 || t >= taps {
				return fmt.Errorf("core: conv %q tap %d out of range [0,%d)", c.Name(), t, taps)
			}
			inE[t] = true
		}
		// Residual: golden output minus the contribution of taps assumed
		// correct.
		rhs := make([]float64, a.Rows)
		for g := 0; g < a.Rows; g++ {
			acc := float64(od[g*y+k])
			row := a.Row(g)
			for t := 0; t < taps; t++ {
				if !inE[t] {
					acc -= row[t] * float64(w[t*y+k])
				}
			}
			rhs[g] = acc
		}
		sub, err := a.SelectColumns(e)
		if err != nil {
			return err
		}
		// One factorization per filter; it takes the paper's
		// least-squares best effort when the restricted system is
		// underdetermined or rank-deficient.
		lsq, err := linalg.FactorLeastSquares(sub)
		if err != nil {
			return fmt.Errorf("core: conv %q selective solve filter %d: %w", c.Name(), k, err)
		}
		x, err := lsq.Solve(rhs)
		if err != nil {
			return fmt.Errorf("core: conv %q selective solve filter %d: %w", c.Name(), k, err)
		}
		unique := lsq.Exact()
		for i, t := range e {
			cur := float64(w[t*y+k])
			if relMismatch(x[i], cur, keepTol) {
				w[t*y+k] = float32(x[i])
			}
		}
		uniqueSlot[ki] = unique
		solvedSlot[ki] = true
		return nil
	})
	if err != nil {
		return exact, approximate, err
	}
	for ki := range keys {
		if !solvedSlot[ki] {
			continue
		}
		if uniqueSlot[ki] {
			exact++
		} else {
			approximate++
		}
	}
	return exact, approximate, nil
}

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

// precedingBoundary returns the greatest boundary position ≤ i.
func (p *plan) precedingBoundary(i int) int {
	best := 0
	for _, b := range p.boundarySet {
		if b <= i && b > best {
			best = b
		}
	}
	return best
}

// succeedingBoundary returns the smallest boundary position > i.
func (p *plan) succeedingBoundary(i int) int {
	for _, b := range p.boundarySet {
		if b > i {
			return b
		}
	}
	return p.model.NumLayers()
}

// GoldenPair exposes the golden input/output tensors MILR would use to
// recover layer i. Exposed for tests and the inspection tool.
func (pr *Protector) GoldenPair(i int) (in, out *tensor.Tensor, err error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if i < 0 || i >= pr.model.NumLayers() {
		return nil, nil, fmt.Errorf("core: layer %d out of range", i)
	}
	in, err = pr.goldenInputOf(i)
	if err != nil {
		return nil, nil, err
	}
	out, err = pr.goldenOutputOf(i)
	if err != nil {
		return nil, nil, err
	}
	return in, out, nil
}
