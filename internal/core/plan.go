package core

import (
	"fmt"
	"sort"

	"milr/internal/crc2d"
	"milr/internal/nn"
	"milr/internal/tensor"
)

// The method's constants, with crc2d.DefaultGroup (the paper's 2-D CRC
// group of 4). They are fixed by the method, not by the caller, so
// Options does not carry them; a saved blob records only the dense band
// its dummy outputs were built with, and LoadProtector refuses any other.
const (
	// detectTol is the relative tolerance for comparing layer outputs
	// against partial checkpoints. It must exceed the solver's float
	// noise so recovered layers are not re-flagged forever, which also
	// means errors with no "meaningful impact on the output of the
	// layer" go undetected — a limitation the paper reports and we
	// reproduce (§V-B).
	detectTol = 1e-3
	// keepTol is the relative tolerance below which a re-solved
	// parameter is considered identical to the stored one and the
	// stored value is kept, avoiding gratuitous float churn in correct
	// weights.
	keepTol = 1e-4
	// rankTol is the relative tolerance of the initialization-time rank
	// probe that decides whether a conv layer's golden-input system has
	// full column rank (whole-filter recovery) or not (partial mode).
	rankTol = 1e-6
	// denseBand is the bandwidth of the banded pseudo-random dummy input
	// used for dense parameter solving. The paper used unstructured
	// random dummy input and leaned on GPU lstsq; a banded system has
	// identical storage cost (the dummy *outputs* are what is stored)
	// but solves in O(N·band) per column on a CPU. See ARCHITECTURE.md
	// (deviations).
	denseBand = 32
)

// Options configures a Protector.
type Options struct {
	// Seed is the master seed; every PRNG tensor (golden input, detection
	// inputs, dummy rows/filters) derives from it, so only this one value
	// plus the stored checkpoints need to survive.
	Seed uint64
	// MaxFullSolveTaps caps the F²Z size above which conv layers are
	// forced into partial-recoverability mode regardless of solvability,
	// reproducing the paper's cost policy for the large CIFAR network
	// ("the convolution layers were required to use partial
	// recoverability to keep cost low", §V-D). Zero means no cap; a
	// negative value is rejected.
	MaxFullSolveTaps int
}

func (o Options) validate() error {
	if o.MaxFullSolveTaps < 0 {
		return fmt.Errorf("core: MaxFullSolveTaps must be ≥ 0 (0 = no cap), got %d", o.MaxFullSolveTaps)
	}
	return nil
}

// roleKind classifies layers by their MILR treatment: the paper's four
// layer types (§IV) plus bias, which it treats as a layer of its own
// (§IV-E). Saved protector blobs store these numbers, so they never
// shift.
type roleKind int

const (
	roleConv        roleKind = iota + 1 // convolution (§IV-B)
	roleDense                           // dense (§IV-A)
	roleBias                            // bias (§IV-E-c)
	_                                   // 4 was roleAffine, since deleted; kept free so 5 and 6 load
	rolePassthrough                     // invertible, parameter-free: ReLU (§IV-D), flatten
	roleOpaque                          // non-invertible, parameter-free: max pooling (§IV-C)
)

func (r roleKind) String() string {
	switch r {
	case roleConv:
		return "conv"
	case roleDense:
		return "dense"
	case roleBias:
		return "bias"
	case rolePassthrough:
		return "passthrough"
	case roleOpaque:
		return "opaque"
	default:
		return fmt.Sprintf("roleKind(%d)", int(r))
	}
}

// layerPlan is the per-layer MILR state.
type layerPlan struct {
	idx  int
	role roleKind

	// Detection state (parameterized layers only).
	partial    *tensor.Tensor // stored partial checkpoint
	biasSum    float64        // stored parameter sum (bias layers)
	paramCount int

	// Conv state.
	conv        *nn.Conv2D
	g2          int  // number of output positions per filter
	partialMode bool // G² < F²Z, the cost cap or a rank-deficient golden input: CRC picks the unknowns
	crcs        []*crc2d.Code
	// crcsClean preserves the initialization-time codes so experiment
	// harnesses can reset protection state after restoring clean weights
	// between fault-injection runs.
	crcsClean []*crc2d.Code
	// invertNatural marks Y ≥ F²Z (backward pass possible without help).
	invertNatural bool
	// dummyFilters > 0 means PRNG dummy filters make the conv
	// invertible; dummyOut holds their stored outputs on the golden
	// input (G²·dummyFilters values).
	dummyFilters int
	dummyOut     *tensor.Tensor

	// Dense state.
	dense *nn.Dense
	// denseDummyOut is C_dummy = A_dummy·B for the banded PRNG dummy
	// input A_dummy (N×N), stored so any parameter column can be
	// re-solved. This is the dominant MILR storage cost, matching the
	// paper's Tables V/VII/IX.
	denseDummyOut *tensor.Tensor

	// Bias state.
	bias *nn.Bias
}

// tag is this layer's PRNG tag in a per-layer tag space (tagDetect,
// tagDenseDummy, tagConvDummy): the space plus the layer index.
func (lp *layerPlan) tag(space uint64) uint64 { return space + uint64(lp.idx) }

// fullSolve reports a conv whose whole filters are solvable from golden
// pairs: G² ≥ F²Z and a full-rank golden input.
func (lp *layerPlan) fullSolve() bool { return lp.role == roleConv && !lp.partialMode }

// plan is the result of the planning half of initialization.
type plan struct {
	model  *nn.Model
	opts   Options
	layers []*layerPlan
	// boundarySet lists checkpoint boundary positions in increasing
	// order. Position b is the input of layer b; position NumLayers is
	// the network output. Position 0 is always a boundary (regenerated
	// from the seed, never stored).
	boundarySet []int
	// stored[b] is the golden tensor at boundary b (nil for b == 0,
	// which is PRNG-regenerable).
	stored map[int]*tensor.Tensor
}

// buildPlan classifies layers and chooses checkpoint boundaries,
// implementing the paper's three checkpoint-elision opportunities (§III):
// invertible layers need no input checkpoint; parameter-free prefixes
// need none; non-invertible layers can be made invertible with dummy
// data when that is cheaper than a checkpoint.
func buildPlan(m *nn.Model, opts Options) (*plan, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	p := &plan{model: m, opts: opts, stored: make(map[int]*tensor.Tensor)}
	boundaries := map[int]bool{0: true, m.NumLayers(): true}
	for i, l := range m.Layers() {
		lp := &layerPlan{idx: i}
		switch v := l.(type) {
		case *nn.Conv2D:
			lp.role = roleConv
			lp.conv = v
			lp.paramCount = v.ParamCount()
			inShape := m.LayerInShape(i)
			outShape, err := v.OutShape(inShape)
			if err != nil {
				return nil, fmt.Errorf("core: plan conv %q: %w", l.Name(), err)
			}
			lp.g2 = outShape[0] * outShape[1]
			unknowns := v.FilterSize() * v.FilterSize() * v.InChannels()
			// Parameter solving: G² equations per filter vs F²Z
			// unknowns (§IV-B-b). When underdetermined — by shape, by
			// the cost cap, or by the initialization-time rank probe of
			// the golden input (see initialize) — use the paper's
			// partial-recoverability alternative: 2-D CRC localization
			// plus restricted solving, instead of storing dummy input.
			lp.partialMode = lp.g2 < unknowns ||
				opts.MaxFullSolveTaps != 0 && unknowns > opts.MaxFullSolveTaps
			// Backward pass: Y equations per sub-region vs F²Z unknowns
			// (§IV-B-a). If underdetermined, weigh PRNG dummy filters
			// (store their outputs) against a full input checkpoint and
			// take the cheaper, per the paper.
			lp.invertNatural = v.Filters() >= unknowns
			if !lp.invertNatural {
				need := unknowns - v.Filters()
				dummyCost := need * lp.g2 * 4
				ckptCost := inShape.NumElements() * 4
				if dummyCost < ckptCost {
					lp.dummyFilters = need
				} else {
					boundaries[i] = true
				}
			}
		case *nn.Dense:
			lp.role = roleDense
			lp.dense = v
			lp.paramCount = v.ParamCount()
			// Backward pass needs P ≥ N (§IV-A-a). When P < N we place a
			// checkpoint at the layer input: its cost (N values) is
			// within a rounding error of the dummy-column alternative
			// (N−P values) and keeps every inversion on the cheap path.
			if v.Out() < v.In() {
				boundaries[i] = true
			}
		case *nn.Bias:
			lp.role = roleBias
			lp.bias = v
			lp.paramCount = v.ParamCount()
		case *nn.Pool2D:
			// "A pooling layer changes the input in a non-invertible
			// way. Hence, it requires the addition of a checkpoint that
			// stores the input to the layer" (§IV-C).
			lp.role = roleOpaque
			boundaries[i] = true
		case *nn.Activation, *nn.Flatten:
			lp.role = rolePassthrough
		default:
			return nil, fmt.Errorf("core: layer %q of type %T is not supported", l.Name(), l)
		}
		p.layers = append(p.layers, lp)
	}
	for b := range boundaries {
		p.boundarySet = append(p.boundarySet, b)
	}
	sort.Ints(p.boundarySet)
	return p, nil
}

// segment is one checkpoint-to-checkpoint span: layers [start, end)
// share the golden tensors stored (or regenerable) at the two bounding
// positions. Golden propagation never crosses a boundary, so segments
// are the recovery pipeline's unit of independence: layers inside one
// segment must recover in ascending order (their golden tensors move
// through each other), while distinct segments share nothing but
// read-only checkpoints and may recover concurrently.
type segment struct {
	start, end int
}

// segments returns the checkpoint segments in ascending order. The
// boundary set always contains 0 and NumLayers, so the segments tile
// the whole layer range.
func (p *plan) segments() []segment {
	out := make([]segment, 0, len(p.boundarySet)-1)
	for i := 0; i+1 < len(p.boundarySet); i++ {
		out = append(out, segment{start: p.boundarySet[i], end: p.boundarySet[i+1]})
	}
	return out
}
