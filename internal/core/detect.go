package core

import (
	"context"
	"fmt"
	"sort"

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

// detectInput regenerates the layer-local detection input.
func (pr *Protector) detectInput(lp *layerPlan) *tensor.Tensor {
	shape := pr.model.LayerInShape(lp.idx)
	return prng.TensorFor(pr.opts.Seed, lp.detectTag, shape...)
}

// convProbe is a conv layer's probe response: its Y outputs at the
// centre output position of the layer-local PRNG input, a position whose
// receptive field covers every filter tap. Only that position's im2col
// row is multiplied (Conv2D.ForwardAt), bit-identical to the same
// elements of the full-map forward.
func (pr *Protector) convProbe(lp *layerPlan) ([]float32, error) {
	in := pr.detectInput(lp)
	out, err := lp.conv.OutShape(in.Shape())
	if err != nil {
		return nil, err
	}
	return lp.conv.ForwardAt(in, out[0]/2, out[1]/2)
}

// convPartialCheckpoint stores one output value per filter: the
// layer's probe response (convProbe).
func (pr *Protector) convPartialCheckpoint(lp *layerPlan) (*tensor.Tensor, error) {
	probe, err := pr.convProbe(lp)
	if err != nil {
		return nil, fmt.Errorf("core: partial checkpoint conv layer %d: %w", lp.idx, err)
	}
	return tensor.MustFromSlice(probe, len(probe)), nil
}

// densePartialCheckpoint stores one output value per parameter column:
// the product of a single PRNG input row with the parameter matrix.
func (pr *Protector) densePartialCheckpoint(lp *layerPlan) (*tensor.Tensor, error) {
	out, err := lp.dense.RecoveryForward(pr.denseProbeInput(lp))
	if err != nil {
		return nil, fmt.Errorf("core: partial checkpoint dense layer %d: %w", lp.idx, err)
	}
	partial := tensor.New(lp.dense.Out())
	copy(partial.Data(), out.Data())
	return partial, nil
}

// Detect runs MILR's error-detection phase: every parameterized layer's
// pseudo-random input is regenerated and run through that layer alone,
// and the output is compared with the stored partial checkpoint. The
// scheme is lightweight by design, and like the paper's it only flags
// errors "significant enough to detect" (§V-B).
//
// With Options.Workers set, independent layers scrub concurrently on a
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
	err := par.ForErr(len(pr.plan.layers), pr.opts.workerPool(), func(i int) error {
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

// detectLayer scrubs one layer. It only reads model parameters and
// stored checkpoints, so independent layers can run concurrently.
func (pr *Protector) detectLayer(lp *layerPlan) (*LayerFinding, error) {
	switch lp.role {
	case roleConv:
		return pr.detectConv(lp)
	case roleDense:
		return pr.detectDense(lp)
	case roleBias:
		sum := lp.bias.Params().Sum()
		if relMismatch(sum, lp.biasSum, detectTol) {
			return &LayerFinding{
				Layer:       lp.idx,
				Name:        pr.model.Layer(lp.idx).Name(),
				SumMismatch: true,
			}, nil
		}
		return nil, nil
	default:
		return nil, nil
	}
}

func (pr *Protector) detectConv(lp *layerPlan) (*LayerFinding, error) {
	probe, err := pr.convProbe(lp)
	if err != nil {
		return nil, fmt.Errorf("core: detect conv layer %d: %w", lp.idx, err)
	}
	flagged := pr.convProbeMismatch(lp, probe)
	if len(flagged) == 0 {
		return nil, nil
	}
	return &LayerFinding{Layer: lp.idx, Name: pr.model.Layer(lp.idx).Name(), Filters: flagged}, nil
}

// convProbeMismatch compares a conv layer's probe response (convProbe's
// Y values) against the stored partial checkpoint and returns the
// mismatching filter indices. Split from detectConv so the recovery
// pipeline's post-heal verification shares the comparison.
func (pr *Protector) convProbeMismatch(lp *layerPlan, probe []float32) []int {
	var flagged []int
	for k, v := range lp.partial.Data() {
		if relMismatch(float64(probe[k]), float64(v), detectTol) {
			flagged = append(flagged, k)
		}
	}
	return flagged
}

// denseProbeInput regenerates the dense layer's detection input row.
func (pr *Protector) denseProbeInput(lp *layerPlan) *tensor.Tensor {
	return prng.TensorFor(pr.opts.Seed, lp.detectTag, 1, lp.dense.In())
}

func (pr *Protector) detectDense(lp *layerPlan) (*LayerFinding, error) {
	out, err := lp.dense.RecoveryForward(pr.denseProbeInput(lp))
	if err != nil {
		return nil, fmt.Errorf("core: detect dense layer %d: %w", lp.idx, err)
	}
	flagged := pr.denseProbeMismatch(lp, out)
	if len(flagged) == 0 {
		return nil, nil
	}
	return &LayerFinding{Layer: lp.idx, Name: pr.model.Layer(lp.idx).Name(), Columns: flagged}, nil
}

// denseProbeMismatch is convProbeMismatch's dense counterpart: it
// compares the probe-row response against the stored partial checkpoint
// and returns the mismatching parameter columns.
func (pr *Protector) denseProbeMismatch(lp *layerPlan, out *tensor.Tensor) []int {
	od := out.Data()
	pd := lp.partial.Data()
	var flagged []int
	for j := range pd {
		if relMismatch(float64(od[j]), float64(pd[j]), detectTol) {
			flagged = append(flagged, j)
		}
	}
	return flagged
}
