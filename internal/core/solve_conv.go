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
//     are one solve of each flagged filter's suspect taps (all in full
//     mode; in partial mode those the 2-D CRC codes localize, or all if
//     the CRC missed the filter), every other tap held at its value.
//     Equal suspect sets share one linalg.FactorLeastSquares; beyond G²
//     unknowns, or where the restricted system is rank-deficient, its
//     pseudo-inverse (least-squares, minimum-norm) solution is the best
//     effort, as in the paper's whole-layer experiments (§V-B). A is
//     never built: the solve reads it one tap position at a time, as a
//     (Z × G²) slab.
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
	first   int            // the group's lowest filter, named in errors
	taps    []int          // the suspect set, as that filter lists it
	suspect []bool         // suspect[t]: tap t is in the set
	sub     *linalg.Matrix // A's columns in set order: the restricted matrix
	lsq     *linalg.LSQ
}

// solveConvSuspects re-solves each filter's suspect taps (suspects
// maps filter → taps, tap = (f1·F+f2)·Z+z) from the golden pair and
// counts the filters solved exactly, underdetermined (more suspect taps
// than G² equations) and rank-deficient, the last two by least-squares
// best effort. It checks every filter and tap, and factors every
// group, before it writes any weight. Per tap position it lowers the
// golden input into one reused slab (row z: tap (f1·F+f2)·Z+z's input
// at each output position, 0 in the padding); then, on the pool, each
// group copies its suspect rows into its restricted matrix, and each
// filter subtracts w[t]·row for its other taps from its rhs row, one
// tensor.SubScaledBand call per run of consecutive non-suspect taps
// over the slab from the run's first tap, so each rhs element takes the
// products and order of a dot product along A's row, ascending t. A
// suspect tap is skipped, never given weight 0: 0·x is NaN for an
// infinite x and −0 for a negative one, and −0 − (−0) is +0 where the
// skip leaves −0. Then the groups factor and the filters solve on the
// pool, filter k writing only w[t*y+k].
func solveConvSuspects(lp *layerPlan, goldenIn, goldenOut *tensor.Tensor, suspects map[int][]int, workers int) (exact, underdetermined, rankDeficient int, err error) {
	c := lp.conv
	f, z, y, s, p := c.FilterSize(), c.InChannels(), c.Filters(), c.Stride(), c.Pad()
	taps := f * f * z
	outShape, err := c.OutShape(goldenIn.Shape())
	if err != nil {
		return 0, 0, 0, err
	}
	gh, gw := outShape[0], outShape[1]
	g2 := gh * gw
	od := goldenOut.Data()
	if goldenOut.NumElements() != g2*y {
		return 0, 0, 0, fmt.Errorf("core: conv %q golden output has %d values, want %d", c.Name(), goldenOut.NumElements(), g2*y)
	}
	// Group the filters by suspect set, in filter order (deterministic,
	// so runs reproduce); a filter with an empty set is not solved.
	keys := xmaps.SortedKeys(suspects)
	type filterSolve struct{ k, g int }
	groups := make([]suspectGroup, 0, len(keys))
	solves := make([]filterSolve, 0, len(keys))
	for _, k := range keys {
		if k < 0 || k >= y {
			return 0, 0, 0, fmt.Errorf("core: conv %q filter %d out of range [0,%d)", c.Name(), k, y)
		}
		e := suspects[k]
		if len(e) == 0 {
			continue
		}
		gi := slices.IndexFunc(groups, func(g suspectGroup) bool { return slices.Equal(g.taps, e) })
		if gi < 0 {
			g := suspectGroup{first: k, taps: e, suspect: make([]bool, taps), sub: linalg.NewMatrix(g2, len(e))}
			for _, t := range e {
				if t < 0 || t >= taps {
					return 0, 0, 0, fmt.Errorf("core: conv %q tap %d out of range [0,%d)", c.Name(), t, taps)
				}
				g.suspect[t] = true
			}
			gi = len(groups)
			groups = append(groups, g)
		}
		solves = append(solves, filterSolve{k, gi})
	}
	rhs := make([]float64, len(solves)*g2)
	for i, fs := range solves {
		for r := range g2 {
			rhs[i*g2+r] = float64(od[r*y+fs.k])
		}
	}
	h, wd, in := goldenIn.Dim(0), goldenIn.Dim(1), goldenIn.Data()
	w := c.Params().Data()
	slab := make([]float64, z*g2)
	for pos := range f * f {
		di, dj := pos/f-p, pos%f-p
		clear(slab)
		// Eight output positions at a time, so that the eight values
		// written to each slab row fill one cache line.
		for i := range gh {
			for j0 := 0; j0 < gw; j0 += 8 {
				for zi := range z {
					for j := j0; j < min(j0+8, gw); j++ {
						if row, col := i*s+di, j*s+dj; row >= 0 && row < h && col >= 0 && col < wd {
							slab[zi*g2+i*gw+j] = float64(in[(row*wd+col)*z+zi])
						}
					}
				}
			}
		}
		par.For(len(groups)+len(solves), workers, func(i int) {
			if i < len(groups) {
				g := &groups[i]
				for ci, t := range g.taps {
					if t/z == pos {
						for r, v := range slab[(t%z)*g2 : (t%z+1)*g2] {
							g.sub.Data[r*len(g.taps)+ci] = v
						}
					}
				}
				return
			}
			i -= len(groups)
			k, g := solves[i].k, &groups[solves[i].g]
			var vals [128]float64 // a run's weights; a longer run takes more calls
			for t := pos * z; t < (pos+1)*z; {
				if g.suspect[t] {
					t++
					continue
				}
				first, n := t%z, 0
				for ; t < (pos+1)*z && !g.suspect[t] && n < len(vals); t, n = t+1, n+1 {
					vals[n] = float64(w[t*y+k])
				}
				tensor.SubScaledBand(rhs[i*g2:(i+1)*g2], slab, vals[:n], first)
			}
		})
	}
	err = par.ForErr(len(groups), workers, func(gi int) error {
		g := &groups[gi]
		lsq, err := linalg.FactorLeastSquares(g.sub)
		if err != nil {
			return fmt.Errorf("core: conv %q solve filter %d: %w", c.Name(), g.first, err)
		}
		g.lsq, g.sub = lsq, nil
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	err = par.ForErr(len(solves), workers, func(i int) error {
		k, g := solves[i].k, &groups[solves[i].g]
		x, err := g.lsq.Solve(rhs[i*g2 : (i+1)*g2])
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
