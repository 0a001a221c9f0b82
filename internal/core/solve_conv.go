package core

import (
	"fmt"
	"sort"

	"milr/internal/crc2d"
	"milr/internal/linalg"
	"milr/internal/nn"
	"milr/internal/par"
	"milr/internal/prng"
	"milr/internal/tensor"
	"milr/internal/xmaps"
)

// Convolution algebra (paper §IV-B). With the golden input lowered by
// im2col into A (G² rows, one per output position; F²Z columns, one per
// filter tap), the layer computes A·W = O where W is the (F²Z, Y) filter
// matrix. Every filter shares the coefficient matrix A, so one
// factorization serves all Y right-hand sides.
//
//   - Parameter solving (§IV-B-b): G² equations per filter; fully
//     solvable when G² ≥ F²Z.
//   - Partial recoverability: when G² < F²Z, 2-D CRC localizes the
//     erroneous taps and a restricted system with only those unknowns is
//     solved; beyond G² unknowns per filter, a least-squares minimum-norm
//     solution is the best effort, as in the paper's whole-layer
//     experiments (§V-B).
//   - Backward pass (§IV-B-a): each output position yields Y equations in
//     the F²Z unknowns of its input sub-region; dummy PRNG filters (whose
//     outputs on the golden input are stored) top the system up when
//     Y < F²Z and the planner judged dummies cheaper than a checkpoint.

// lowerF64 converts the conv's im2col matrix of the golden input to
// float64.
func lowerF64(c *nn.Conv2D, in *tensor.Tensor) (*linalg.Matrix, error) {
	cols, err := c.Lower(in)
	if err != nil {
		return nil, err
	}
	m := linalg.NewMatrix(cols.Dim(0), cols.Dim(1))
	src := cols.Data()
	for i := range src {
		m.Data[i] = float64(src[i])
	}
	return m, nil
}

// lowerTF64 converts the conv's im2col matrix of the golden input to
// float64 and transposes it on the way: row t of the result holds tap
// t's input value at every output position, the vector the selective
// solve's residual subtracts whole. It reads eight im2col rows at a
// time, so each tap's eight outputs fill one cache line.
func lowerTF64(c *nn.Conv2D, in *tensor.Tensor) (*linalg.Matrix, error) {
	cols, err := c.Lower(in)
	if err != nil {
		return nil, err
	}
	g2, taps := cols.Dim(0), cols.Dim(1)
	at := linalg.NewMatrix(taps, g2)
	src := cols.Data()
	for g0 := 0; g0 < g2; g0 += 8 {
		rows := src[g0*taps : min(g0+8, g2)*taps]
		for t := 0; t < taps; t++ {
			dst := at.Data[t*g2+g0:]
			for r := 0; r*taps < len(rows); r++ {
				dst[r] = float64(rows[r*taps+t])
			}
		}
	}
	return at, nil
}

// convDummyOutputs applies `count` PRNG dummy filters to the golden input
// and returns their outputs (G² rows × count columns), the only part of
// the dummy data that must be stored.
func convDummyOutputs(c *nn.Conv2D, goldenIn *tensor.Tensor, seed, tag uint64, count int) (*tensor.Tensor, error) {
	dummyW := prng.TensorFor(seed, tag, c.FilterSize(), c.FilterSize(), c.InChannels(), count)
	mat, err := dummyW.Reshape(c.FilterSize()*c.FilterSize()*c.InChannels(), count)
	if err != nil {
		return nil, err
	}
	cols, err := c.Lower(goldenIn)
	if err != nil {
		return nil, err
	}
	return tensor.MatMul(cols, mat)
}

// convEncodeCRC builds the paper's 2-D CRC codes: one (Z,Y) matrix per
// filter-tap position (f1,f2), CRC-8 over groups of 4 along both axes
// ("This is performed F² times to fully encode all parameters in the
// matrix", §IV-B-c).
func convEncodeCRC(c *nn.Conv2D) ([]*crc2d.Code, error) {
	f, z, y := c.FilterSize(), c.InChannels(), c.Filters()
	w := c.Params().Data()
	codes := make([]*crc2d.Code, f*f)
	for pos := 0; pos < f*f; pos++ {
		code, err := crc2d.Encode(w[pos*z*y:(pos+1)*z*y], z, y, crc2d.DefaultGroup)
		if err != nil {
			return nil, fmt.Errorf("core: CRC encode conv %q pos %d: %w", c.Name(), pos, err)
		}
		codes[pos] = code
	}
	return codes, nil
}

// convLocateCRC recomputes the stored CRC codes against the current
// parameters and returns, per filter, the sorted suspect tap indices
// (tap = (f1·F+f2)·Z+z). "CRC codes that do not match their stored
// values are matched up with the CRC codes along the other axis
// identifying singular weights that are erroneous" (§IV-B-c). It also
// returns the codes it recomputed, new slices for convRefreshCRC.
func convLocateCRC(lp *layerPlan) (map[int][]int, []*crc2d.Code, error) {
	c := lp.conv
	f, z, y := c.FilterSize(), c.InChannels(), c.Filters()
	w := c.Params().Data()
	suspects := make(map[int][]int)
	fresh := make([]*crc2d.Code, f*f)
	for pos := 0; pos < f*f; pos++ {
		cells, code, err := lp.crcs[pos].LocateWithCode(w[pos*z*y : (pos+1)*z*y])
		if err != nil {
			return nil, nil, fmt.Errorf("core: CRC locate conv %q pos %d: %w", c.Name(), pos, err)
		}
		fresh[pos] = code
		for _, cell := range cells {
			tap := pos*z + cell.Row
			suspects[cell.Col] = append(suspects[cell.Col], tap)
		}
	}
	for _, k := range xmaps.SortedKeys(suspects) {
		sort.Ints(suspects[k])
	}
	return suspects, fresh, nil
}

// convRefreshCRC installs the codes of the recovered parameters so later
// locates compare against them. fresh holds convLocateCRC's codes of the
// parameters before the solve, which wrote only the suspect taps, so
// only the CRC groups holding a suspect cell are recomputed. fresh is
// never the initialization-time slice (crcsClean), so ResetCRC still
// finds that intact.
func convRefreshCRC(lp *layerPlan, fresh []*crc2d.Code, suspects map[int][]int) error {
	c := lp.conv
	z, y := c.InChannels(), c.Filters()
	w := c.Params().Data()
	for _, k := range xmaps.SortedKeys(suspects) {
		for _, t := range suspects[k] {
			pos := t / z
			if err := fresh[pos].Refresh(w[pos*z*y:(pos+1)*z*y], crc2d.Cell{Row: t % z, Col: k}); err != nil {
				return fmt.Errorf("core: CRC refresh conv %q pos %d: %w", c.Name(), pos, err)
			}
		}
	}
	lp.crcs = fresh
	return nil
}

// solveConvFull re-solves whole filters from the golden input/output
// pair. Only the filters listed are touched; one QR factorization of the
// im2col matrix serves them all, and the per-filter solves — independent
// right-hand sides against a read-only factorization, writing disjoint
// weight entries — run on the engine's worker pool.
func solveConvFull(lp *layerPlan, goldenIn, goldenOut *tensor.Tensor, filters []int, opts Options) error {
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
	return par.ForErr(len(filters), opts.workerPool(), func(fi int) error {
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

// solveConvSelective solves only the CRC-localized suspect taps per
// filter. When a filter's suspect count exceeds the G² available
// equations, the minimum-norm least-squares solution is used — the
// paper's partial-recoverability best effort.
//
// The golden input is lowered once per layer into Aᵀ, so each tap's
// column of A is a contiguous row. A filter's residual starts from its
// golden output column and subtracts w[t]·Aᵀ[t] for every tap t assumed
// correct, in ascending t, through tensor.SubScaled: per output
// position, the same products subtracted in the same order as a dot
// product along A's row, so the bits do not depend on the layout.
func solveConvSelective(lp *layerPlan, goldenIn, goldenOut *tensor.Tensor, suspects map[int][]int, opts Options) (exact, approximate int, err error) {
	c := lp.conv
	at, err := lowerTF64(c, goldenIn)
	if err != nil {
		return 0, 0, err
	}
	y := c.Filters()
	taps, g2 := at.Rows, at.Cols
	od := goldenOut.Data()
	if goldenOut.NumElements() != g2*y {
		return 0, 0, fmt.Errorf("core: conv %q golden output has %d values, want %d", c.Name(), goldenOut.NumElements(), g2*y)
	}
	w := c.Params().Data()
	// Deterministic filter order keeps runs reproducible.
	keys := xmaps.SortedKeys(suspects)
	// Independent filters solve concurrently: filter k only reads and
	// writes column k of the weight matrix (w[t*y+k]), so the writes
	// are disjoint and the per-filter outcomes independent of worker
	// count. Outcomes land in per-filter slots; the exact/approximate
	// tallies are summed in key order afterwards.
	uniqueSlot := make([]bool, len(keys))
	solvedSlot := make([]bool, len(keys))
	err = par.ForErr(len(keys), opts.workerPool(), func(ki int) error {
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
		rhs := make([]float64, g2)
		for g := range rhs {
			rhs[g] = float64(od[g*y+k])
		}
		for t := 0; t < taps; t++ {
			if !inE[t] {
				tensor.SubScaled(rhs, at.Row(t), float64(w[t*y+k]))
			}
		}
		// The restricted system: A's columns e, read from Aᵀ's rows.
		sub := linalg.NewMatrix(g2, len(e))
		for i, t := range e {
			for g, v := range at.Row(t) {
				sub.Data[g*len(e)+i] = v
			}
		}
		unique := len(e) <= g2
		x, err := linalg.LeastSquares(sub, rhs)
		if err != nil {
			// The restricted system can be rank-deficient when the
			// golden input is structurally low-rank; take the paper's
			// least-squares best effort.
			x, err = linalg.RidgeSolve(sub, rhs)
			if err != nil {
				return fmt.Errorf("core: conv %q selective solve filter %d: %w", c.Name(), k, err)
			}
			unique = false
		}
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

// invertConv computes the conv layer's input from its output: per output
// position, the real filters (plus any PRNG dummy filters) give a system
// of equations over the F²Z sub-region values; the per-position solutions
// are folded back with overlap averaging (§IV-B-a).
func (pr *Protector) invertConv(lp *layerPlan, out *tensor.Tensor) (*tensor.Tensor, error) {
	c := lp.conv
	if !lp.invertNatural && lp.dummyFilters == 0 {
		return nil, fmt.Errorf("core: conv %q is not invertible (planner should have placed a checkpoint)", c.Name())
	}
	f, z, y := c.FilterSize(), c.InChannels(), c.Filters()
	taps := f * f * z
	rows := y + lp.dummyFilters
	coeff := linalg.NewMatrix(rows, taps)
	w := c.Params().Data()
	for k := 0; k < y; k++ {
		for t := 0; t < taps; t++ {
			coeff.Set(k, t, float64(w[t*y+k]))
		}
	}
	if lp.dummyFilters > 0 {
		dummyW := prng.TensorFor(pr.opts.Seed, lp.dummyTag, f, f, z, lp.dummyFilters)
		dd := dummyW.Data()
		for a := 0; a < lp.dummyFilters; a++ {
			for t := 0; t < taps; t++ {
				coeff.Set(y+a, t, float64(dd[t*lp.dummyFilters+a]))
			}
		}
	}
	qr, err := linalg.FactorQR(coeff)
	if err != nil {
		return nil, fmt.Errorf("core: conv %q invert: %w", c.Name(), err)
	}
	outShape := out.Shape()
	if len(outShape) != 3 || outShape[2] != y {
		return nil, fmt.Errorf("core: conv %q invert got output shape %v", c.Name(), outShape)
	}
	g2 := outShape[0] * outShape[1]
	od := out.Data()
	var dummyOD []float32
	if lp.dummyOut != nil {
		dummyOD = lp.dummyOut.Data()
		if lp.dummyOut.NumElements() != g2*lp.dummyFilters {
			return nil, fmt.Errorf("core: conv %q dummy outputs have %d values, want %d", c.Name(), lp.dummyOut.NumElements(), g2*lp.dummyFilters)
		}
	}
	subregions := tensor.New(g2, taps)
	sd := subregions.Data()
	// Each output position is an independent solve against the shared
	// read-only factorization, writing its own sub-region row — the
	// per-position loop fans out on the engine's worker pool.
	err = par.ForErr(g2, pr.opts.workerPool(), func(g int) error {
		rhs := make([]float64, rows)
		for k := 0; k < y; k++ {
			rhs[k] = float64(od[g*y+k])
		}
		for a := 0; a < lp.dummyFilters; a++ {
			rhs[y+a] = float64(dummyOD[g*lp.dummyFilters+a])
		}
		x, err := qr.Solve(rhs)
		if err != nil {
			return fmt.Errorf("core: conv %q invert position %d: %w", c.Name(), g, err)
		}
		for t := 0; t < taps; t++ {
			sd[g*taps+t] = float32(x[t])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	inShape := c.InShape()
	if inShape == nil || len(inShape) != 3 {
		return nil, fmt.Errorf("core: conv %q has no build-time input shape", c.Name())
	}
	p := c.Pad()
	padded, err := tensor.Col2Im(subregions, inShape[0]+2*p, inShape[1]+2*p, z, f, c.Stride())
	if err != nil {
		return nil, err
	}
	return tensor.Crop2D(padded, p)
}
