package core

import (
	"context"
	"fmt"
	"sort"

	"milr/internal/nn"
	"milr/internal/obs"
	"milr/internal/par"
	"milr/internal/prng"
	"milr/internal/tensor"
)

// Error detection (paper §III, Figure 2): each parameterized layer has a
// layer-local pseudo-random input, regenerated from the master seed, and
// a stored partial checkpoint — one output value per parameter subset
// (per filter for convolutions, per parameter column for dense layers,
// the parameter sum for bias layers). "A partial checkpoint can be up to
// two orders of magnitude smaller than a full checkpoint for
// convolutional layers."

// LayerFinding describes what detection saw in one layer.
type LayerFinding struct {
	// Layer is the model layer index.
	Layer int
	// Name is the layer's model name.
	Name string
	// Filters lists mismatching filters (conv layers).
	Filters []int
	// Columns lists mismatching parameter columns (dense layers).
	Columns []int
	// SumMismatch marks a bias parameter-sum mismatch.
	SumMismatch bool
}

// DetectionReport is the "log of erroneous layers" the recovery phase
// consumes (§III).
type DetectionReport struct {
	Findings []LayerFinding
}

// Erroneous returns the flagged layer indices in ascending order.
func (r *DetectionReport) Erroneous() []int {
	out := make([]int, 0, len(r.Findings))
	for _, f := range r.Findings {
		out = append(out, f.Layer)
	}
	sort.Ints(out)
	return out
}

// HasErrors reports whether any layer was flagged.
func (r *DetectionReport) HasErrors() bool { return len(r.Findings) > 0 }

// probe is a conv or dense layer's response to its layer-local PRNG
// row, one value per filter or parameter column: what its partial
// checkpoint stores and what every scrub compares against it. It is
// one (1, K) PRNG row times the layer's (K, N) parameter matrix in a
// one-row GEMM: for a conv, K = F²Z taps in im2col order and N = Y
// filters (the row is one receptive field, its output one 1×1×Y
// position); for a dense layer, K = In and N = Out.
func (pr *Protector) probe(lp *layerPlan) ([]float32, error) {
	w := pr.model.Layer(lp.idx).(nn.Parameterized).Params()
	n := w.Dim(w.Rank() - 1)
	k := w.NumElements() / n
	row := prng.TensorFor(pr.opts.Seed, lp.tag(tagDetect), 1, k)
	out := make([]float32, n)
	if err := tensor.MatMulInto(out, row.Data(), w.Data(), 1, k, n, 1, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// Detect runs MILR's error-detection phase: every parameterized layer's
// pseudo-random input is regenerated and run through that layer alone,
// and the output is compared with the stored partial checkpoint. The
// scheme is lightweight by design, and like the paper's it only flags
// errors "significant enough to detect" (§V-B).
//
// With the model's worker count set (nn.Model.SetWorkers), independent
// layers scrub concurrently on a
// bounded pool; findings are assembled in layer order, so the report is
// identical to the serial one.
func (pr *Protector) Detect() (*DetectionReport, error) {
	return pr.DetectContext(context.Background())
}

// DetectContext is Detect with cancellation: the context is checked
// before each layer scrub, so a cancelled or expired context makes the
// pass return promptly with ctx's error. Detection never mutates the
// model, so an aborted pass leaves no partial state behind.
func (pr *Protector) DetectContext(ctx context.Context) (*DetectionReport, error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.detectLocked(ctx)
}

func (pr *Protector) detectLocked(ctx context.Context) (*DetectionReport, error) {
	ctx, span := obs.Start(ctx, "core.detect")
	defer span.End()
	slots := make([]*LayerFinding, len(pr.plan.layers))
	err := par.ForErr(len(pr.plan.layers), pr.model.Workers(), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		finding, err := pr.detectLayer(pr.plan.layers[i])
		if err != nil {
			return err
		}
		slots[i] = finding
		return nil
	})
	if err != nil {
		return nil, err
	}
	report := &DetectionReport{}
	for _, finding := range slots {
		if finding != nil {
			report.Findings = append(report.Findings, *finding)
		}
	}
	span.SetInt("layers", len(pr.plan.layers))
	span.SetInt("flagged", len(report.Findings))
	return report, nil
}

// detectLayer scrubs one layer: a conv or dense layer's probe against
// its partial checkpoint, a bias layer's parameter sum against the
// stored one. It is the only comparison MILR makes — detection, the
// partial-mode pre-check and post-heal verification all call it — and
// it allocates a finding only for a flagged layer. It only reads model
// parameters and stored checkpoints, so independent layers can run
// concurrently.
func (pr *Protector) detectLayer(lp *layerPlan) (*LayerFinding, error) {
	var flagged []int
	sumMismatch := false
	switch lp.role {
	case roleConv, roleDense:
		probe, err := pr.probe(lp)
		if err != nil {
			return nil, fmt.Errorf("core: probe layer %d: %w", lp.idx, err)
		}
		for k, v := range lp.partial.Data() {
			if relMismatch(float64(probe[k]), float64(v), detectTol) {
				flagged = append(flagged, k)
			}
		}
	case roleBias:
		sumMismatch = relMismatch(lp.bias.Params().Sum(), lp.biasSum, detectTol)
	}
	if len(flagged) == 0 && !sumMismatch {
		return nil, nil
	}
	f := &LayerFinding{Layer: lp.idx, Name: pr.model.Layer(lp.idx).Name(), SumMismatch: sumMismatch}
	if lp.role == roleConv {
		f.Filters = flagged
	} else {
		f.Columns = flagged
	}
	return f, nil
}
