package soak

import (
	"fmt"
	"io"
	"strings"
	"time"

	"milr/internal/xmaps"
)

// WindowMetrics is one virtual-clock window's slice of the run: the
// deterministic traffic/injection/scrub counts, plus wall-clock
// measurements (latency tail, window duration) that ride along outside
// the replay contract.
type WindowMetrics struct {
	// Window is the global window index; Phase the owning phase's name.
	Window int
	Phase  string
	// Issued counts arrivals fired this window; Correct those whose
	// answer matched the clean model's; Wrong the answered remainder.
	Issued, Correct, Wrong int
	// Rejected counts queue-cap fast-fails, Expired context expiries —
	// both zero under the deterministic defaults (unbounded queues, no
	// deadline).
	Rejected, Expired int
	// Injections and Corrupted count this window's fault events and the
	// weights (bits, for RBER) they corrupted.
	Injections, Corrupted int
	// Scrubs and Heals count guard cycles run at this window's boundary
	// and the subset that found errors to repair.
	Scrubs, Heals int
	// P99 is the worst per-model served-latency p99 at the window's end
	// (bounded-window collector; wall-clock, excluded from Transcript).
	P99 time.Duration
	// Elapsed is the window's wall-clock duration (excluded from
	// Transcript).
	Elapsed time.Duration
}

// ModelSummary aggregates one model's run: deterministic counts plus
// final latency quantiles.
type ModelSummary struct {
	// Issued/Correct/Wrong count this model's traffic outcome.
	Issued, Correct, Wrong int
	// Injections/Corrupted count the fault events that hit this model.
	Injections, Corrupted int
	// Scrubs and ScrubFailures mirror fleet.ModelStats; Heals is every
	// cycle that found errors to repair (its Heals plus PartialHeals).
	Scrubs, Heals, ScrubFailures int64
	// P50/P99 are the model's final served-latency quantiles
	// (wall-clock, excluded from Transcript).
	P50, P99 time.Duration
}

// Eq6 is the availability fit: Eq. 6 of the paper evaluated at the
// measured error rate and calibrated detect/recover costs, against the
// availability the run actually delivered.
type Eq6 struct {
	// Valid reports whether a fit was possible (at least one corrupting
	// injection and a running guard).
	Valid bool
	// TdSeconds and TrSeconds are the calibrated mean detection-pass and
	// incremental recovery costs (measured on the idle models up front).
	TdSeconds, TrSeconds float64
	// TbeSeconds is the measured mean uptime between corrupting
	// injections; DetectionsPerError the measured scrub-per-error ratio
	// (Eq. 6's I).
	TbeSeconds, DetectionsPerError float64
	// ErrorEvents counts the corrupting injections behind the fit.
	ErrorEvents int
	// Predicted is Eq. 6 at (Tbe, Td, Tr, I); Measured is
	// 1 − scrub-downtime/wall; Delta is Measured − Predicted.
	Predicted, Measured, Delta float64
	// MeasuredMinAccuracy is the worst per-window accuracy the run
	// served; PredictedMinAccuracy is the trade-off curve's accuracy at
	// the measured availability (0 with CurveNote set when the curve
	// cannot answer).
	MeasuredMinAccuracy, PredictedMinAccuracy float64
	// CurveNote records why the curve query was skipped, if it was.
	CurveNote string
}

// Report is one soak run's full result. The JSON encoding is the
// machine-readable report; Transcript is the deterministic replay
// fingerprint; WriteTable renders the human summary.
type Report struct {
	// Scenario, Seed and Models identify the campaign.
	Scenario string
	Seed     uint64
	Models   []string
	// Windows is the number of windows executed (less than the script's
	// total only when Truncated); GuardEvery echoes the scrub cadence.
	Windows    int
	GuardEvery int
	// Truncated reports that Config.MaxWall expired before the script
	// finished.
	Truncated bool
	// Overlap echoes Config.Overlap: true means scrubs ran concurrently
	// with traffic and the deterministic-replay contract was waived.
	Overlap bool
	// Events is the injection timeline with apply-time corruption counts.
	Events []Event
	// PerWindow holds one WindowMetrics per executed window.
	PerWindow []WindowMetrics
	// PerModel aggregates per model.
	PerModel map[string]ModelSummary
	// Issued/Correct/Wrong/Rejected/Expired aggregate the traffic
	// outcome; Accuracy is Correct/Issued.
	Issued, Correct, Wrong, Rejected, Expired int
	Accuracy                                  float64
	// Injections and CorruptedWeights aggregate the fault timeline;
	// Scrubs/Heals/ScrubFailures the guard counters.
	Injections, CorruptedWeights int
	Scrubs, Heals, ScrubFailures int64
	// Elapsed is the serving loop's wall-clock; Downtime the summed
	// scrub durations within it (wall-clock, excluded from Transcript).
	Elapsed, Downtime time.Duration
	// Fit is the Eq. 6 predicted-vs-measured comparison.
	Fit Eq6
}

// Transcript renders the run's deterministic fields — the injection
// timeline with corruption counts, per-window traffic/scrub counts,
// and per-model totals — one line each, excluding every wall-clock
// measurement. Two runs of the same (scenario, seed, targets) must
// produce byte-identical transcripts at any worker count; the replay
// test pins exactly that.
func (r *Report) Transcript() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario=%s seed=%d models=%v windows=%d guard=%d truncated=%v\n",
		r.Scenario, r.Seed, r.Models, r.Windows, r.GuardEvery, r.Truncated)
	for _, ev := range r.Events {
		fmt.Fprintf(&b, "event w=%d phase=%s kind=%s model=%s seed=%#x corrupted=%d layers=%v\n",
			ev.Window, ev.Phase, ev.Kind, ev.Model, ev.Seed, ev.Corrupted, ev.Layers)
	}
	for _, wm := range r.PerWindow {
		fmt.Fprintf(&b, "window w=%d phase=%s issued=%d correct=%d wrong=%d rejected=%d expired=%d injections=%d corrupted=%d scrubs=%d heals=%d\n",
			wm.Window, wm.Phase, wm.Issued, wm.Correct, wm.Wrong, wm.Rejected, wm.Expired,
			wm.Injections, wm.Corrupted, wm.Scrubs, wm.Heals)
	}
	for _, name := range xmaps.SortedKeys(r.PerModel) {
		ms := r.PerModel[name]
		fmt.Fprintf(&b, "model %s issued=%d correct=%d wrong=%d injections=%d corrupted=%d scrubs=%d heals=%d scrubfailures=%d\n",
			name, ms.Issued, ms.Correct, ms.Wrong, ms.Injections, ms.Corrupted, ms.Scrubs, ms.Heals, ms.ScrubFailures)
	}
	return b.String()
}

// WriteTable renders the human-readable report: the campaign summary,
// a per-phase table, per-model totals, and the Eq. 6 fit.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "soak %s: seed=%d models=%v windows=%d guard=every %d windows overlap=%v\n",
		r.Scenario, r.Seed, r.Models, r.Windows, r.GuardEvery, r.Overlap)
	if r.Truncated {
		fmt.Fprintf(w, "  TRUNCATED by wall-clock budget before the script finished\n")
	}
	fmt.Fprintf(w, "traffic: issued=%d correct=%d wrong=%d rejected=%d expired=%d accuracy=%.4f\n",
		r.Issued, r.Correct, r.Wrong, r.Rejected, r.Expired, r.Accuracy)
	fmt.Fprintf(w, "faults:  injections=%d corrupted=%d   guard: scrubs=%d heals=%d failures=%d\n",
		r.Injections, r.CorruptedWeights, r.Scrubs, r.Heals, r.ScrubFailures)
	fmt.Fprintf(w, "wall:    elapsed=%v scrub-downtime=%v\n", r.Elapsed.Round(time.Microsecond), r.Downtime.Round(time.Microsecond))

	fmt.Fprintf(w, "%-12s %8s %8s %6s %6s %6s %6s %10s\n",
		"phase", "issued", "correct", "wrong", "inject", "scrubs", "heals", "worst-p99")
	type phaseAgg struct {
		issued, correct, wrong, inject, scrubs, heals int
		p99                                           time.Duration
	}
	order := []string{}
	agg := map[string]*phaseAgg{}
	for _, wm := range r.PerWindow {
		a := agg[wm.Phase]
		if a == nil {
			a = &phaseAgg{}
			agg[wm.Phase] = a
			order = append(order, wm.Phase)
		}
		a.issued += wm.Issued
		a.correct += wm.Correct
		a.wrong += wm.Wrong
		a.inject += wm.Injections
		a.scrubs += wm.Scrubs
		a.heals += wm.Heals
		if wm.P99 > a.p99 {
			a.p99 = wm.P99
		}
	}
	for _, ph := range order {
		a := agg[ph]
		fmt.Fprintf(w, "%-12s %8d %8d %6d %6d %6d %6d %10v\n",
			ph, a.issued, a.correct, a.wrong, a.inject, a.scrubs, a.heals, a.p99.Round(time.Microsecond))
	}

	for _, name := range xmaps.SortedKeys(r.PerModel) {
		ms := r.PerModel[name]
		fmt.Fprintf(w, "model %-10s issued=%-6d correct=%-6d wrong=%-4d injections=%-3d scrubs=%-3d heals=%-3d p50=%v p99=%v\n",
			name, ms.Issued, ms.Correct, ms.Wrong, ms.Injections, ms.Scrubs, ms.Heals,
			ms.P50.Round(time.Microsecond), ms.P99.Round(time.Microsecond))
	}

	if !r.Fit.Valid {
		fmt.Fprintf(w, "eq6: no fit (no corrupting injections or no guard)\n")
		return
	}
	f := r.Fit
	fmt.Fprintf(w, "eq6: Td=%.4gs Tr=%.4gs Tbe=%.4gs I=%.2f errors=%d\n",
		f.TdSeconds, f.TrSeconds, f.TbeSeconds, f.DetectionsPerError, f.ErrorEvents)
	fmt.Fprintf(w, "eq6: predicted=%.6f measured=%.6f delta=%+.6f\n", f.Predicted, f.Measured, f.Delta)
	if f.CurveNote != "" {
		fmt.Fprintf(w, "eq6: min-accuracy measured=%.4f (curve: %s)\n", f.MeasuredMinAccuracy, f.CurveNote)
	} else {
		fmt.Fprintf(w, "eq6: min-accuracy measured=%.4f curve-predicted=%.4f\n", f.MeasuredMinAccuracy, f.PredictedMinAccuracy)
	}
}
