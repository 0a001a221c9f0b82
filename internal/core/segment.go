package core

import (
	"context"
	"fmt"

	"milr/internal/par"
	"milr/internal/tensor"
)

// The recovery pipeline: how golden tensors reach a flagged layer and
// how the recovered layer is verified. Moving them to every flagged
// layer independently would re-read the checkpoint at its preceding
// boundary and re-propagate forward through layers the previous flagged
// layer's propagation already visited (the per-layer oracle in
// recover_oracle_test.go does exactly that). This file amortizes it per
// checkpoint segment:
//
//   - one backward sweep per segment inverts from the succeeding
//     checkpoint once, capturing every flagged layer's golden output on
//     the way down (the inversions between two flagged layers are shared
//     instead of recomputed per layer);
//   - one forward sweep per segment visits the flagged layers in
//     ascending order, re-solving each and verifying it with the scrub
//     that flagged it (verifyLayer: the one-row probe of a conv or
//     dense layer, the parameter sum of a bias). A flagged layer that
//     consumes a golden input gets it from one recovery
//     nn.Model.ForwardRange call, which carries the tensor from the
//     preceding checkpoint or the previous such layer — *through its
//     recovered parameters* — to this one, in the model's stacked pass;
//   - segments share nothing but read-only checkpoints, so they recover
//     concurrently on the engine's worker pool (nn.Model.Workers).
//
// The result is at most one propagation GEMM per conv or dense layer
// per segment, plus one one-row probe per recovered conv or dense layer
// (an exact count, enforced via the tensor.GEMMCalls counter in
// segment_test.go), and one checkpoint read per segment end instead of
// one per flagged layer. The zoo nets hold one conv or dense layer per
// segment, so there the sweep shares inversions and checkpoint reads,
// not GEMMs. Everything is bit-identical to the per-layer oracle: the
// sweeps visit the same layers in the same order with the same
// parameter states — a layer's recovery never changes the propagation
// *up to* its own input, and inversion above a flagged layer never
// depends on layers below it — and the oracle verifies with its own
// comparisons (its own PRNG row times the reshaped filters for a
// conv). Pinned by the
// equivalence test in segment_test.go; the façade-level
// TestRecoveryPipelineBitIdentity pins pooled against serial workers.

// segmentNeedsGolden reports whether recovering a layer of this role
// consumes its golden input and output (dense layers re-solve purely
// from stored dummy outputs).
func segmentNeedsGolden(r roleKind) bool {
	return r == roleConv || r == roleBias
}

// recoverSegments groups findings (sorted by layer) by checkpoint
// segment and recovers each non-empty segment with one backward and one
// forward sweep, segments fanning out on the engine's worker pool.
// Results are assembled in ascending layer order whatever order the
// segments finish in.
func (pr *Protector) recoverSegments(ctx context.Context, findings []LayerFinding) (*RecoveryReport, error) {
	segs := pr.plan.segments()
	groups := make([][]LayerFinding, 0, len(segs))
	bounds := make([]segment, 0, len(segs))
	si := 0
	for _, f := range findings {
		if f.Layer < 0 || f.Layer >= pr.model.NumLayers() {
			return nil, fmt.Errorf("core: finding for layer %d out of range [0,%d)", f.Layer, pr.model.NumLayers())
		}
		for segs[si].end <= f.Layer {
			si++
		}
		if n := len(bounds); n == 0 || bounds[n-1] != segs[si] {
			bounds = append(bounds, segs[si])
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], f)
	}
	slots := make([][]RecoveryResult, len(groups))
	err := par.ForErr(len(groups), pr.model.Workers(), func(g int) error {
		results, err := pr.recoverSegment(ctx, bounds[g], groups[g])
		slots[g] = results
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &RecoveryReport{}
	for _, results := range slots {
		out.Results = append(out.Results, results...)
	}
	return out, nil
}

// recoverSegment recovers one segment's flagged layers (sorted
// ascending) with the two-sweep pipeline. The context is checked once
// per flagged layer — that count is the contract, and it keeps
// cancellation layer-atomic — with the first flagged layer's check
// hoisted above the sweeps, so a cancelled context aborts the segment
// before any inversion or propagation work (and a cancelled
// multi-segment pass skips the remaining segments outright: each begins
// with this check).
func (pr *Protector) recoverSegment(ctx context.Context, seg segment, fs []LayerFinding) ([]RecoveryResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	flagged := make(map[int]*LayerFinding, len(fs))
	firstGolden := -1 // the lowest flagged layer that consumes golden tensors
	for i := range fs {
		f := &fs[i]
		flagged[f.Layer] = f
		if firstGolden < 0 && segmentNeedsGolden(pr.plan.layers[f.Layer].role) {
			firstGolden = f.Layer
		}
	}

	// Backward sweep: one inversion pass from the succeeding checkpoint
	// captures every needed golden output. All captures happen before
	// any solving: recovering a layer never changes the parameters of
	// the layers *above* a later flagged layer, so pre-capturing is
	// bit-identical to capturing layer by layer.
	outs := make(map[int]*tensor.Tensor)
	if firstGolden >= 0 {
		cur, err := pr.boundaryTensor(seg.end)
		if err != nil {
			return nil, err
		}
		for j := seg.end - 1; j >= firstGolden; j-- {
			if f := flagged[j]; f != nil && segmentNeedsGolden(pr.plan.layers[j].role) {
				outs[j] = cur
			}
			if j > firstGolden {
				cur, err = pr.invertLayer(j, cur)
				if err != nil {
					return nil, fmt.Errorf("core: invert layer %d (%s): %w", j, pr.model.Layer(j).Name(), err)
				}
			}
		}
	}

	// Forward sweep: one propagation pass from the preceding checkpoint.
	// Each flagged layer that consumes a golden input gets it from one
	// recovery ForwardRange carrying the tensor from the previous such
	// layer, through its recovered parameters, to this one; the others
	// (dense) solve from stored dummy outputs with no propagation spent
	// reaching them.
	var cur *tensor.Tensor // golden input of layer pos
	pos := seg.start
	if firstGolden >= 0 {
		var err error
		if cur, err = pr.boundaryTensor(seg.start); err != nil {
			return nil, err
		}
	}
	var results []RecoveryResult
	for i := range fs {
		f := &fs[i]
		if i > 0 { // the first flagged layer's check is hoisted above
			if err := ctx.Err(); err != nil {
				return results, err
			}
		}
		lp := pr.plan.layers[f.Layer]
		var goldenIn *tensor.Tensor
		if segmentNeedsGolden(lp.role) {
			var err error
			if cur, err = pr.model.ForwardRange(pos, f.Layer, cur, true); err != nil {
				return results, fmt.Errorf("core: segment forward to layer %d (%s): %w", f.Layer, pr.model.Layer(f.Layer).Name(), err)
			}
			pos, goldenIn = f.Layer, cur
		}
		res, err := pr.recoverSweptLayer(lp, f, goldenIn, outs[f.Layer])
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// recoverSweptLayer re-solves one flagged layer and verifies it with the
// scrub that flagged it (verifyLayer) unless the solver failed. The rule
// is the same for every role.
func (pr *Protector) recoverSweptLayer(lp *layerPlan, f *LayerFinding, goldenIn, goldenOut *tensor.Tensor) (RecoveryResult, error) {
	var res RecoveryResult
	var err error
	switch lp.role {
	case roleConv:
		res, err = pr.solveConvFinding(lp, *f, goldenIn, goldenOut)
	case roleDense:
		res = pr.solveDenseFinding(lp, *f)
	case roleBias:
		res, err = pr.recoverBias(lp, goldenIn, goldenOut)
	default:
		return res, fmt.Errorf("core: finding for non-parameterized layer %d", f.Layer)
	}
	if err != nil {
		return res, err
	}
	if res.Status != Failed {
		err = pr.verifyLayer(lp, &res)
	}
	return res, err
}
