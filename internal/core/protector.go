package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"milr/internal/linalg"
	"milr/internal/nn"
	"milr/internal/par"
	"milr/internal/prng"
	"milr/internal/tensor"
)

// PRNG tag spaces: every deterministic tensor MILR regenerates is keyed
// by (master seed, tag), so only the master seed is stored.
const (
	tagGoldenInput uint64 = 0x0100_0000_0000_0000
	tagDetect      uint64 = 0x0200_0000_0000_0000
	tagDenseDummy  uint64 = 0x0300_0000_0000_0000
	tagConvDummy   uint64 = 0x0400_0000_0000_0000
)

// Protector attaches MILR protection to a model: it owns the checkpoint
// plan, all golden data, and the detection and recovery entry points.
// The protected model's parameters stay live in ordinary (fault-prone)
// memory; everything the Protector stores corresponds to what the paper
// keeps in error-resistant storage (SSD/HDD/persistent memory, §III).
type Protector struct {
	model *nn.Model
	plan  *plan
	opts  Options

	// mu serializes the engine's phases (Detect, Recover, Save, …)
	// against each other and against external weight mutation routed
	// through Sync. It makes concurrent scrub cycles and concurrent
	// fault injection race-free; the engine's *internal* parallelism
	// (the model's worker count, nn.Model.Workers) runs inside the lock.
	mu sync.Mutex
}

// NewProtector runs MILR's initialization phase on a model: it plans the
// checkpoints, computes and stores the partial checkpoints, full
// checkpoints, dummy outputs, CRC codes and bias sums. "The
// initialization phase only runs once when neural network is started on
// a system" (§III).
func NewProtector(m *nn.Model, opts Options) (*Protector, error) {
	return NewProtectorContext(context.Background(), m, opts)
}

// NewProtectorContext is NewProtector with cancellation: initialization
// aborts promptly (returning ctx's error) once the context is done. With
// the model's worker count set (nn.Model.SetWorkers), the per-layer
// initialization work — rank probes, dummy-output computation, partial
// checkpoints, CRC encoding — runs on a bounded pool; rank probes
// dominate initialization cost and every layer's artifacts are
// independent, so layers parallelize cleanly with
// bit-identical results at any worker count.
func NewProtectorContext(ctx context.Context, m *nn.Model, opts Options) (*Protector, error) {
	pl, err := buildPlan(m, opts)
	if err != nil {
		return nil, err
	}
	if err := checkFinite(m); err != nil {
		return nil, err
	}
	pr := &Protector{model: m, plan: pl, opts: opts}
	if err := pr.initialize(ctx); err != nil {
		return nil, err
	}
	return pr, nil
}

// ErrNonFiniteWeight is returned, wrapped, by NewProtector when a
// parameter of the model is NaN or ±Inf: golden data computed from it
// would be NaN, and the rank probe cannot see a NaN, so the engine
// would plan solves it cannot carry out.
var ErrNonFiniteWeight = errors.New("core: non-finite weight")

// checkFinite scans every parameterized layer once and names the first
// NaN or ±Inf parameter.
func checkFinite(m *nn.Model) error {
	for i, l := range m.Layers() {
		p, ok := l.(nn.Parameterized)
		if !ok {
			continue
		}
		for k, v := range p.Params().Data() {
			if math.Float32bits(v)&0x7f800000 == 0x7f800000 { // exponent all ones: ±Inf or NaN
				return fmt.Errorf("core: layer %d (%s) parameter %d is %v: %w", i, l.Name(), k, v, ErrNonFiniteWeight)
			}
		}
	}
	return nil
}

// Model returns the protected model.
func (pr *Protector) Model() *nn.Model { return pr.model }

// Options returns the configuration the protector was built with; it
// never changes after construction.
func (pr *Protector) Options() Options { return pr.opts }

// Sync runs fn while holding the engine lock. It is the mutation gate
// for everything outside the engine that writes the protected model's
// parameters — fault injectors, trainers, live weight updates. Routing
// writes through Sync makes them race-free against concurrent Detect,
// Recover, and fleet guard scrub cycles (the paper's deployment story: errors
// strike *between* scrubs; a scrub observes a consistent snapshot).
func (pr *Protector) Sync(fn func()) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	fn()
}

// initialize computes every stored artifact: a sequential golden
// propagation pass, then per-layer artifact computation on the engine's
// worker pool (the model's worker count). Every layer's artifacts
// depend only on that layer's parameters and its captured golden input,
// so the parallel pass is bit-identical to the serial one at any worker
// count.
func (pr *Protector) initialize(ctx context.Context) error {
	m := pr.model
	// 1. Propagate the golden input through the network in recovery mode,
	//    storing full checkpoints at boundary positions and capturing each
	//    conv layer's golden input for the per-layer pass (rank probes and
	//    dummy-filter outputs need it).
	layerIn := make([]*tensor.Tensor, m.NumLayers())
	cur := pr.goldenNetworkInput()
	for i := 0; i < m.NumLayers(); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if pr.isStoredBoundary(i) {
			pr.plan.stored[i] = cur.Clone()
		}
		lp := pr.plan.layers[i]
		if lp.role == roleConv && (!lp.partialMode || lp.dummyFilters > 0) {
			layerIn[i] = cur
		}
		next, err := m.ForwardRange(i, i+1, cur, true)
		if err != nil {
			return fmt.Errorf("core: init forward layer %d (%s): %w", i, m.Layer(i).Name(), err)
		}
		cur = next
	}
	pr.plan.stored[m.NumLayers()] = cur.Clone()

	// 2. Per-layer detection and solver data, independent across layers.
	return par.ForErr(len(pr.plan.layers), pr.model.Workers(), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return pr.initLayer(pr.plan.layers[i], layerIn[i])
	})
}

// initLayer computes one layer's stored artifacts. goldenIn is the
// layer's golden input (captured by the propagation pass; nil unless the
// layer needs it). It only reads model parameters and writes the
// layer's own plan entry, so independent layers run concurrently.
func (pr *Protector) initLayer(lp *layerPlan, goldenIn *tensor.Tensor) error {
	i := lp.idx
	if lp.role == roleConv || lp.role == roleDense {
		// The partial checkpoint: the layer's probe on clean parameters.
		probe, err := pr.probe(lp)
		if err != nil {
			return fmt.Errorf("core: partial checkpoint layer %d: %w", i, err)
		}
		lp.partial = tensor.MustFromSlice(probe, len(probe))
	}
	switch lp.role {
	case roleConv:
		if !lp.partialMode {
			// Rank probe: whole-filter recovery needs the golden-input
			// im2col matrix to have full column rank. Inputs that came
			// through earlier convolutions live in a subspace bounded by
			// the composed receptive field and can fail this even with
			// G² ≥ F²Z — these layers fall back to partial mode, which
			// is precisely the paper's "partial recoverable" marking on
			// interior conv layers.
			a, err := lowerF64(lp.conv, goldenIn)
			if err != nil {
				return fmt.Errorf("core: rank probe layer %d: %w", i, err)
			}
			qrp, err := linalg.FactorQRPivot(a, rankTol)
			if err != nil {
				return fmt.Errorf("core: rank probe layer %d: %w", i, err)
			}
			lp.partialMode = qrp.Rank() < a.Cols
		}
		if lp.dummyFilters > 0 {
			out, err := convDummyOutputs(lp.conv, goldenIn, pr.opts.Seed, lp.tag(tagConvDummy), lp.dummyFilters)
			if err != nil {
				return fmt.Errorf("core: init dummy filters for layer %d: %w", i, err)
			}
			lp.dummyOut = out
		}
		// After the rank probe, so a probe-demoted layer gets its codes.
		if lp.partialMode {
			codes, err := convEncodeCRC(lp.conv)
			if err != nil {
				return err
			}
			lp.crcs = codes
			lp.crcsClean = codes
		}
	case roleDense:
		dummyOut, err := denseDummyOutputs(lp.dense, pr.opts.Seed, lp.tag(tagDenseDummy), denseBand)
		if err != nil {
			return err
		}
		lp.denseDummyOut = dummyOut
	case roleBias:
		// "the sum of all the bias parameters is taken and stored"
		// (§IV-E-c).
		lp.biasSum = lp.bias.Params().Sum()
	}
	return nil
}

func (pr *Protector) isStoredBoundary(pos int) bool {
	if pos == 0 {
		return false // regenerated from the seed
	}
	for _, b := range pr.plan.boundarySet {
		if b == pos {
			return true
		}
	}
	return false
}

// goldenNetworkInput regenerates the network-level golden input from the
// master seed.
func (pr *Protector) goldenNetworkInput() *tensor.Tensor {
	return prng.TensorFor(pr.opts.Seed, tagGoldenInput, pr.model.InShape()...)
}

// boundaryTensor returns the golden tensor at boundary position b.
func (pr *Protector) boundaryTensor(b int) (*tensor.Tensor, error) {
	if b == 0 {
		return pr.goldenNetworkInput(), nil
	}
	t, ok := pr.plan.stored[b]
	if !ok {
		return nil, fmt.Errorf("core: position %d is not a stored boundary", b)
	}
	return t.Clone(), nil
}

// invertLayer computes layer j's input from its output under recovery
// semantics.
func (pr *Protector) invertLayer(j int, out *tensor.Tensor) (*tensor.Tensor, error) {
	lp := pr.plan.layers[j]
	switch lp.role {
	case roleConv:
		return pr.invertConv(lp, out)
	case roleDense:
		return invertDense(lp.dense, out)
	case roleOpaque:
		return nil, fmt.Errorf("core: layer %d is not invertible (planner should have placed a checkpoint)", j)
	default:
		inv, ok := pr.model.Layer(j).(nn.Invertible)
		if !ok {
			return nil, fmt.Errorf("core: layer %d (%T) does not implement inversion", j, pr.model.Layer(j))
		}
		return inv.Invert(out)
	}
}

// ResetCRC restores the initialization-time CRC codes. Experiment
// harnesses call it together with restoring the clean weight snapshot,
// because recovery refreshes the codes against the (float-rounded)
// recovered parameters.
func (pr *Protector) ResetCRC() {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	for _, lp := range pr.plan.layers {
		if lp.crcsClean != nil {
			lp.crcs = lp.crcsClean
		}
	}
}

// relMismatch reports whether a and b differ beyond the relative
// tolerance. NaN counts as a mismatch: bit flips in float32 exponents
// routinely produce NaN weights, and a NaN-poisoned comparison must flag
// the layer rather than silently comparing false. So does an infinite
// difference, which a bound scaled by an infinite b would excuse.
// math.Abs clears the sign bit without a branch: on an overwritten
// layer the signs are random, and a sign test mispredicts half the time.
func relMismatch(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return true
	}
	d := math.Abs(a - b)
	return d > tol*(1+math.Abs(b)) || d > math.MaxFloat64
}
