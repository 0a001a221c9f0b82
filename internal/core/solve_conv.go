package core

import (
	"fmt"
	"slices"
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
// matrix: G² equations per filter.
//
//   - Parameter solving (§IV-B-b) and partial recoverability (§IV-B-c)
//     are one solve of each flagged filter's suspect taps, every other
//     tap held at its current value. A full-mode layer suspects every
//     tap; a partial-mode layer the taps its 2-D CRC codes localize, or
//     every tap of a filter the CRC missed. Filters with equal suspect
//     sets share one factorization, and beyond G² unknowns the
//     minimum-norm solution is the best effort, as in the paper's
//     whole-layer experiments (§V-B): linalg.FactorLeastSquares.
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

// transposeF64 converts an im2col matrix (g2 rows of taps values) to
// float64 Aᵀ: row t holds tap t's input value at every output
// position, the vector the suspect solve's residual subtracts whole. It
// reads eight im2col rows at a time, so each tap's eight outputs fill
// one cache line.
func transposeF64(src []float32, g2, taps int) *linalg.Matrix {
	at := linalg.NewMatrix(taps, g2)
	for g0 := 0; g0 < g2; g0 += 8 {
		rows := src[g0*taps : min(g0+8, g2)*taps]
		for t := 0; t < taps; t++ {
			dst := at.Data[t*g2+g0:]
			for r := 0; r*taps < len(rows); r++ {
				dst[r] = float64(rows[r*taps+t])
			}
		}
	}
	return at
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

// suspectGroup is the filters that share one suspect set, and so one
// restricted system and one factorization.
type suspectGroup struct {
	first   int    // the group's lowest filter, named in errors
	taps    []int  // the suspect set, as that filter lists it
	suspect []bool // suspect[t]: tap t is in the set
	lsq     *linalg.LSQ
}

// solveConvSuspects re-solves each filter's suspect taps (suspects
// maps filter → taps, tap = (f1·F+f2)·Z+z) from the golden pair and
// counts the filters solved exactly and, by a least-squares best
// effort, those with more suspect taps than G² equations
// (underdetermined) and the rest (rank-deficient). It checks every
// filter and tap, and factors every group, before it writes any weight. Each group's restricted matrix, A's
// columns in set order, is gathered from the float32 im2col rows and
// factored once, the groups on the worker pool; then the filters solve
// on the pool, filter k writing only w[t*y+k]. A filter's residual is
// its golden output column minus w[t]·Aᵀ[t] for every tap t outside
// its set, in ascending t, through tensor.SubScaled: per output
// position the products and order of a dot product along A's row, so
// the bits do not depend on the layout. Aᵀ is built only when some set
// leaves a tap out.
func solveConvSuspects(lp *layerPlan, goldenIn, goldenOut *tensor.Tensor, suspects map[int][]int, workers int) (exact, underdetermined, rankDeficient int, err error) {
	c := lp.conv
	y := c.Filters()
	taps := c.FilterSize() * c.FilterSize() * c.InChannels()
	// Deterministic filter order keeps runs reproducible.
	keys := xmaps.SortedKeys(suspects)
	for _, k := range keys {
		if k < 0 || k >= y {
			return 0, 0, 0, fmt.Errorf("core: conv %q filter %d out of range [0,%d)", c.Name(), k, y)
		}
		for _, t := range suspects[k] {
			if t < 0 || t >= taps {
				return 0, 0, 0, fmt.Errorf("core: conv %q tap %d out of range [0,%d)", c.Name(), t, taps)
			}
		}
	}
	cols, err := c.Lower(goldenIn)
	if err != nil {
		return 0, 0, 0, err
	}
	g2 := cols.Dim(0)
	od := goldenOut.Data()
	if goldenOut.NumElements() != g2*y {
		return 0, 0, 0, fmt.Errorf("core: conv %q golden output has %d values, want %d", c.Name(), goldenOut.NumElements(), g2*y)
	}
	// Group the filters by suspect set, in filter order; a filter with
	// an empty set is not solved.
	type filterSolve struct{ k, g int }
	groups := make([]suspectGroup, 0, len(keys))
	solves := make([]filterSolve, 0, len(keys))
	needAT := false
	for _, k := range keys {
		e := suspects[k]
		if len(e) == 0 {
			continue
		}
		gi := slices.IndexFunc(groups, func(g suspectGroup) bool { return slices.Equal(g.taps, e) })
		if gi < 0 {
			g := suspectGroup{first: k, taps: e, suspect: make([]bool, taps)}
			for _, t := range e {
				g.suspect[t] = true
			}
			needAT = needAT || slices.Contains(g.suspect, false)
			gi = len(groups)
			groups = append(groups, g)
		}
		solves = append(solves, filterSolve{k, gi})
	}
	src := cols.Data()
	err = par.ForErr(len(groups), workers, func(gi int) error {
		g := &groups[gi]
		n := len(g.taps)
		sub := linalg.NewMatrix(g2, n)
		for r := 0; r < g2; r++ {
			row, dst := src[r*taps:(r+1)*taps], sub.Data[r*n:(r+1)*n]
			for i, t := range g.taps {
				dst[i] = float64(row[t])
			}
		}
		lsq, err := linalg.FactorLeastSquares(sub)
		if err != nil {
			return fmt.Errorf("core: conv %q solve filter %d: %w", c.Name(), g.first, err)
		}
		g.lsq = lsq
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var at *linalg.Matrix
	if needAT {
		at = transposeF64(src, g2, taps)
	}
	w := c.Params().Data()
	err = par.ForErr(len(solves), workers, func(i int) error {
		k, g := solves[i].k, &groups[solves[i].g]
		rhs := make([]float64, g2)
		for r := range rhs {
			rhs[r] = float64(od[r*y+k])
		}
		for t, s := range g.suspect {
			if !s {
				tensor.SubScaled(rhs, at.Row(t), float64(w[t*y+k]))
			}
		}
		x, err := g.lsq.Solve(rhs)
		if err != nil {
			return fmt.Errorf("core: conv %q solve filter %d: %w", c.Name(), k, err)
		}
		for i, t := range g.taps {
			if relMismatch(x[i], float64(w[t*y+k]), keepTol) {
				w[t*y+k] = float32(x[i])
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	for _, fs := range solves {
		switch g := &groups[fs.g]; {
		case g.lsq.Exact():
			exact++
		case len(g.taps) > g2:
			underdetermined++
		default:
			rankDeficient++
		}
	}
	return exact, underdetermined, rankDeficient, nil
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
		dummyW := prng.TensorFor(pr.opts.Seed, lp.tag(tagConvDummy), f, f, z, lp.dummyFilters)
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
	err = par.ForErr(g2, pr.model.Workers(), func(g int) error {
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
	inShape := pr.model.LayerInShape(lp.idx)
	p := c.Pad()
	padded, err := tensor.Col2Im(subregions, inShape[0]+2*p, inShape[1]+2*p, z, f, c.Stride())
	if err != nil {
		return nil, err
	}
	return tensor.Crop2D(padded, p)
}
