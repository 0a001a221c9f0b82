package gateway

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"milr/internal/fleet"
)

// MetricsContentType is the Content-Type of the /metrics route:
// Prometheus text exposition format 0.0.4.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// metricsWriter accumulates exposition lines, remembering the first
// write error so every emit call can stay unchecked.
type metricsWriter struct {
	w   io.Writer
	err error
}

func (mw *metricsWriter) emit(format string, args ...any) {
	if mw.err != nil {
		return
	}
	_, mw.err = fmt.Fprintf(mw.w, format, args...)
}

// family emits one metric family header: # HELP then # TYPE.
func (mw *metricsWriter) family(name, help, typ string) {
	mw.emit("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// fnum formats a float the way Prometheus expects: shortest exact
// decimal representation.
func fnum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteMetrics renders a fleet stats snapshot in Prometheus text
// exposition format 0.0.4. The output is deterministic for a given
// snapshot — families in fixed order, models sorted by name — so it
// can be golden-file tested. Per the zero-traffic contract on
// serve.Stats, a model's latency quantile series are omitted (not
// emitted as 0, which would read as "zero latency") until it has
// served at least one request; every counter and gauge series is
// always present so dashboards see the model the moment it registers.
// Per the metrics-lifecycle contract, an unregistered model's per-model
// series are dropped from the exposition (not frozen at their last
// value), while the fleet-wide *_total families keep its history — the
// fleet folds retired models' counts into its aggregates — so no
// counter ever moves backwards across a model's lifecycle.
func WriteMetrics(w io.Writer, st fleet.Stats) error {
	names := make([]string, 0, len(st.Models))
	for name := range st.Models {
		names = append(names, name)
	}
	sort.Strings(names)
	mw := &metricsWriter{w: w}

	counters := []struct {
		name, help string
		get        func(fleet.ModelStats) int64
	}{
		{"milr_model_admitted_total", "Requests accepted into the model's admission queue.",
			func(ms fleet.ModelStats) int64 { return ms.Admitted }},
		{"milr_model_rejected_total", "Requests refused at admission because the model's queue was at cap.",
			func(ms fleet.ModelStats) int64 { return ms.Rejected }},
		{"milr_model_served_total", "Requests answered with a prediction.",
			func(ms fleet.ModelStats) int64 { return ms.Served }},
		{"milr_model_cancelled_total", "Admitted requests dropped because their context expired before execution.",
			func(ms fleet.ModelStats) int64 { return ms.Cancelled }},
		{"milr_model_failed_total", "Requests answered with a batch-execution error.",
			func(ms fleet.ModelStats) int64 { return ms.Failed }},
		{"milr_model_batches_total", "Coalesced batch executions (ForwardBatch calls).",
			func(ms fleet.ModelStats) int64 { return ms.Batches }},
		{"milr_model_scrubs_total", "Fleet-guard self-heal cycles completed on the model.",
			func(ms fleet.ModelStats) int64 { return ms.Scrubs }},
		{"milr_model_scrub_failures_total", "Self-heal cycles that returned an engine error.",
			func(ms fleet.ModelStats) int64 { return ms.ScrubFailures }},
		{"milr_model_heals_total", "Self-heal cycles whose detection pass flagged errors (actual repairs, not clean verifications).",
			func(ms fleet.ModelStats) int64 { return ms.Heals }},
		{"milr_model_partial_heals_total", "Self-heal cycles that flagged errors and left approximate or failed layers behind (the model did not verify clean).",
			func(ms fleet.ModelStats) int64 { return ms.PartialHeals }},
	}
	for _, c := range counters {
		mw.family(c.name, c.help, "counter")
		for _, name := range names {
			mw.emit("%s{model=%q} %d\n", c.name, escapeLabel(name), c.get(st.Models[name]))
		}
	}

	mw.family("milr_model_scrub_seconds_total",
		"Cumulative wall time spent in completed scrub cycles — the downtime numerator of the paper's Eq. 6 availability model.",
		"counter")
	for _, name := range names {
		mw.emit("milr_model_scrub_seconds_total{model=%q} %s\n", escapeLabel(name), fnum(st.Models[name].ScrubTime.Seconds()))
	}

	mw.family("milr_model_batch_fill_total", "Batches executed with exactly {size} coalesced requests.", "counter")
	for _, name := range names {
		for i, n := range st.Models[name].BatchFill {
			mw.emit("milr_model_batch_fill_total{model=%q,size=\"%d\"} %d\n", escapeLabel(name), i+1, n)
		}
	}

	gauges := []struct {
		name, help string
		get        func(fleet.ModelStats) string
	}{
		{"milr_model_mean_batch_fill", "Mean executed batch size (0 until the first batch executes; 1.0 = no coalescing).",
			func(ms fleet.ModelStats) string { return fnum(ms.MeanBatchFill) }},
		{"milr_model_queue_depth", "Requests admitted but not yet answered (queued or in the in-flight batch).",
			func(ms fleet.ModelStats) string { return strconv.Itoa(ms.QueueDepth) }},
		{"milr_model_queued", "Requests waiting in the admission queue (the quantity the queue cap bounds).",
			func(ms fleet.ModelStats) string { return strconv.Itoa(ms.Queued) }},
		{"milr_model_weight", "Fair-share weight in the fleet's batch arbiter.",
			func(ms fleet.ModelStats) string { return fnum(ms.Weight) }},
		{"milr_model_queue_cap", "Resolved admission queue cap (0 = unbounded).",
			func(ms fleet.ModelStats) string { return strconv.Itoa(ms.QueueCap) }},
	}
	for _, g := range gauges {
		mw.family(g.name, g.help, "gauge")
		for _, name := range names {
			mw.emit("%s{model=%q} %s\n", g.name, escapeLabel(name), g.get(st.Models[name]))
		}
	}

	mw.family("milr_model_latency_seconds",
		"Admission-to-answer latency quantiles over the bounded sliding window; absent until the model has served a request.",
		"summary")
	for _, name := range names {
		ms := st.Models[name]
		if ms.Served == 0 {
			continue
		}
		mw.emit("milr_model_latency_seconds{model=%q,quantile=\"0.5\"} %s\n", escapeLabel(name), fnum(ms.P50.Seconds()))
		mw.emit("milr_model_latency_seconds{model=%q,quantile=\"0.99\"} %s\n", escapeLabel(name), fnum(ms.P99.Seconds()))
	}

	mw.family("milr_fleet_admitted_total", "Fleet-wide admitted requests.", "counter")
	mw.emit("milr_fleet_admitted_total %d\n", st.Admitted)
	mw.family("milr_fleet_rejected_total", "Fleet-wide fast-fail admission rejections.", "counter")
	mw.emit("milr_fleet_rejected_total %d\n", st.Rejected)
	mw.family("milr_fleet_served_total", "Fleet-wide served requests.", "counter")
	mw.emit("milr_fleet_served_total %d\n", st.Served)
	mw.family("milr_fleet_models", "Models currently registered (unregistered models leave the gauge and their per-model series are dropped; the fleet-wide totals keep their history).", "gauge")
	mw.emit("milr_fleet_models %d\n", len(st.Models))
	mw.family("milr_fleet_swaps_total", "Rolling-upgrade engine replacements (Fleet.Replace) performed.", "counter")
	mw.emit("milr_fleet_swaps_total %d\n", st.Swaps)
	mw.family("milr_fleet_unregistered_total", "Models unregistered over the fleet's lifetime.", "counter")
	mw.emit("milr_fleet_unregistered_total %d\n", st.Unregistered)
	mw.family("milr_gemm_calls_total",
		"Process-wide GEMM kernel invocations (serving batches, scrub probes, recovery sweeps).",
		"counter")
	mw.emit("milr_gemm_calls_total %d\n", st.GEMMCalls)
	return mw.err
}
