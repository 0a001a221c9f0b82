package core

import (
	"context"
	"fmt"
	"sort"

	"milr/internal/crc2d"
	"milr/internal/obs"
	"milr/internal/tensor"
	"milr/internal/xmaps"
)

// RecoveryStatus classifies the outcome of recovering one layer.
type RecoveryStatus int

const (
	// Recovered means the layer verifies against its partial checkpoint
	// again: recovery is exact up to float rounding.
	Recovered RecoveryStatus = iota + 1
	// Approximate means a best-effort least-squares solution was applied
	// (the paper's partial-recoverability "N/A" cases) or verification
	// still mismatches.
	Approximate
	// Failed means the solver could not produce a solution at all.
	Failed
)

// String implements fmt.Stringer.
func (s RecoveryStatus) String() string {
	switch s {
	case Recovered:
		return "recovered"
	case Approximate:
		return "approximate"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("RecoveryStatus(%d)", int(s))
	}
}

// RecoveryResult describes the recovery of one layer.
type RecoveryResult struct {
	Layer  int
	Name   string
	Status RecoveryStatus
	// Solved counts parameters the solver touched.
	Solved int
	// Detail carries a human-readable note (e.g. why only approximate).
	Detail string
}

// RecoveryReport aggregates per-layer outcomes.
type RecoveryReport struct {
	Results []RecoveryResult
}

// AllRecovered reports whether every attempted layer verified clean.
func (r *RecoveryReport) AllRecovered() bool {
	for _, res := range r.Results {
		if res.Status != Recovered {
			return false
		}
	}
	return true
}

// RecoverContext runs MILR's error-recovery phase over a detection
// report: erroneous layers are re-solved in ascending order within each
// checkpoint segment (§V-A), each from golden input/output pairs moved
// to it from the nearest checkpoints by one golden-propagation sweep
// pair per segment, independent segments concurrent (see
// recoverSegments).
// "The system can only recover at most one layer in between two
// checkpoints, but any number of parameter errors in that layer can be
// recovered" — with several erroneous layers per segment the golden
// tensors themselves pass through erroneous parameters and recovery
// accuracy degrades, reproducing the paper's high-RBER outliers.
//
// The context is checked between layers, so a cancelled or expired
// context makes recovery return promptly with ctx's error. Cancellation
// is layer-atomic — each flagged layer is either fully re-solved (the
// layers recovered before the cancellation landed) or untouched — so
// the model is always in a consistent state; re-running recovery later
// finishes the job.
func (pr *Protector) RecoverContext(ctx context.Context, report *DetectionReport) (*RecoveryReport, error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.recoverLocked(ctx, report)
}

// recoverLocked requires pr.mu. Layers within one checkpoint segment
// recover in ascending order — golden tensors move *through*
// neighbouring layers, so intra-segment order is semantic — while the
// independent segments, and within a layer the independent filters,
// parameter columns, and inversion positions, run on the engine's
// worker pool (see recoverSegments).
func (pr *Protector) recoverLocked(ctx context.Context, report *DetectionReport) (*RecoveryReport, error) {
	ctx, span := obs.Start(ctx, "core.recover")
	span.SetInt("flagged", len(report.Findings))
	defer span.End()
	findings := make([]LayerFinding, len(report.Findings))
	copy(findings, report.Findings)
	sort.Slice(findings, func(i, j int) bool { return findings[i].Layer < findings[j].Layer })
	return pr.recoverSegments(ctx, findings)
}

// SelfHeal runs detection and, when errors are found, recovery — as one
// atomic cycle: external mutation routed through Sync cannot land
// between the two phases.
func (pr *Protector) SelfHeal() (*DetectionReport, *RecoveryReport, error) {
	return pr.SelfHealContext(context.Background())
}

// SelfHealContext is SelfHeal with cancellation. The context is checked
// between layer scrubs and between layer recoveries; once it is done,
// the cycle returns promptly with ctx's error and the model in a
// consistent state — every flagged layer either untouched (detect-only)
// or fully re-solved, never half-written. A later SelfHeal completes
// whatever the cancelled cycle left undone.
func (pr *Protector) SelfHealContext(ctx context.Context) (*DetectionReport, *RecoveryReport, error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	ctx, span := obs.Start(ctx, "core.selfheal")
	defer span.End()
	det, err := pr.detectLocked(ctx)
	if err != nil {
		return nil, nil, err
	}
	if !det.HasErrors() {
		span.SetAttr("healed", "false")
		return det, &RecoveryReport{}, nil
	}
	rec, err := pr.recoverLocked(ctx, det)
	if err != nil {
		return det, nil, err
	}
	span.SetAttr("healed", "true")
	return det, rec, nil
}

// HealOutcome folds one SelfHeal cycle into the two facts every scrub
// scheduler counts: whether detection flagged anything, and whether the
// model is known good afterwards (a clean pass, or every flagged layer
// verified). Plain bools: internal/fleet must not import the engine.
func HealOutcome(det *DetectionReport, rec *RecoveryReport, err error) (errorsDetected, recovered bool) {
	if det != nil && det.HasErrors() {
		return true, rec != nil && rec.AllRecovered()
	}
	return false, err == nil
}

// solveConvFinding re-solves a flagged conv layer from a golden pair:
// it picks each filter's suspect taps (every tap in full mode, the
// CRC-localized ones in partial mode) and makes one solve call. On
// solver failure the returned result carries Status Failed; otherwise
// Status is left for verifyLayer to fill.
func (pr *Protector) solveConvFinding(lp *layerPlan, f LayerFinding, goldenIn, goldenOut *tensor.Tensor) (RecoveryResult, error) {
	res := RecoveryResult{Layer: lp.idx, Name: f.Name}
	var suspects map[int][]int
	var fresh []*crc2d.Code
	var all []int // every whole-filter set shares this one slice
	wholeFilter := func(k int) {
		if all == nil {
			all = make([]int, lp.conv.FilterSize()*lp.conv.FilterSize()*lp.conv.InChannels())
			for t := range all {
				all[t] = t
			}
		}
		suspects[k] = all
	}
	if lp.partialMode {
		var err error
		if suspects, fresh, err = convLocateCRC(lp); err != nil {
			return res, err
		}
		// CRC false-negative fallback: a filter whose partial checkpoint
		// *currently* mismatches but for which CRC localized nothing
		// gets all taps marked suspect. Filters that verify clean right
		// now (e.g. a filter flagged on an intact layer) are left
		// untouched.
		still, err := pr.detectLayer(lp)
		if err != nil {
			return res, err
		}
		if still != nil {
			for _, k := range still.Filters {
				if len(suspects[k]) == 0 {
					wholeFilter(k)
				}
			}
		}
	} else {
		suspects = make(map[int][]int, len(f.Filters))
		for _, k := range f.Filters {
			wholeFilter(k)
		}
	}
	exact, under, deficient, err := solveConvSuspects(lp, goldenIn, goldenOut, suspects, pr.model.Workers())
	if err != nil {
		res.Status = Failed
		res.Detail = err.Error()
		return res, nil
	}
	for _, k := range xmaps.SortedKeys(suspects) {
		res.Solved += len(suspects[k])
	}
	if under+deficient > 0 {
		res.Detail = fmt.Sprintf("%d filters exact, least-squares: %d underdetermined, %d rank-deficient", exact, under, deficient)
	}
	if lp.partialMode {
		if err := convRefreshCRC(lp, fresh, suspects); err != nil {
			return res, err
		}
	}
	return res, nil
}

// solveDenseFinding re-solves a flagged dense layer's columns from the
// stored dummy outputs (no golden propagation needed). On failure the
// result carries Status Failed; otherwise Status is left for
// verifyLayer to fill.
func (pr *Protector) solveDenseFinding(lp *layerPlan, f LayerFinding) RecoveryResult {
	res := RecoveryResult{Layer: lp.idx, Name: f.Name}
	if err := solveDenseColumns(lp, f.Columns, denseBand, pr.opts.Seed, pr.model.Workers()); err != nil {
		res.Status = Failed
		res.Detail = err.Error()
		return res
	}
	res.Solved = len(f.Columns) * lp.dense.In()
	return res
}

// verifyLayer fills a re-solved layer's status from the scrub that
// flagged it (detectLayer): a clean scrub means Recovered, a flag
// Approximate. A conv result keeps its solver's note.
func (pr *Protector) verifyLayer(lp *layerPlan, res *RecoveryResult) error {
	still, err := pr.detectLayer(lp)
	if err != nil {
		return fmt.Errorf("core: verify layer %d (%s): %w", lp.idx, pr.model.Layer(lp.idx).Name(), err)
	}
	if still == nil {
		res.Status = Recovered
		return nil
	}
	res.Status = Approximate
	switch lp.role {
	case roleDense:
		res.Detail = fmt.Sprintf("%d columns still mismatch", len(still.Columns))
	case roleBias:
		res.Detail = "parameter sum still mismatches"
	}
	return nil
}

// recoverBias re-solves bias parameters by subtracting the golden input
// from the golden output and "cleaning" the broadcast copies by
// averaging them (§IV-E-b). Status is left for verifyLayer to fill.
func (pr *Protector) recoverBias(lp *layerPlan, goldenIn, goldenOut *tensor.Tensor) (RecoveryResult, error) {
	res := RecoveryResult{Layer: lp.idx, Name: pr.model.Layer(lp.idx).Name()}
	diff := goldenOut.Clone()
	if err := diff.Sub(goldenIn); err != nil {
		return res, fmt.Errorf("core: bias layer %d: %w", lp.idx, err)
	}
	c := lp.bias.Width()
	sums := make([]float64, c)
	counts := make([]int, c)
	dd := diff.Data()
	for i, v := range dd {
		sums[i%c] += float64(v)
		counts[i%c]++
	}
	w := lp.bias.Params().Data()
	for i := 0; i < c; i++ {
		solved := sums[i] / float64(counts[i])
		if relMismatch(solved, float64(w[i]), keepTol) {
			w[i] = float32(solved)
		}
	}
	res.Solved = c
	return res, nil
}

// Boundaries returns the checkpoint boundary positions (layer-input
// indices; the final position is the network output). Exposed for
// inspection tools and tests.
func (pr *Protector) Boundaries() []int {
	out := make([]int, len(pr.plan.boundarySet))
	copy(out, pr.plan.boundarySet)
	return out
}
