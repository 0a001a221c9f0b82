package fleet

import (
	"time"

	"milr/internal/serve"
	"milr/internal/tensor"
)

// ModelInfo describes one registered model: its routing name, the
// input shape every Predict sample must match, and its resolved
// admission/fair-share configuration. The gateway uses it to validate
// request payloads and to answer the model-index route without
// touching the serving path.
type ModelInfo struct {
	// Name is the model's routing key (the Register name).
	Name string
	// InShape is the model's input tensor shape; every sample routed
	// to the model must match it exactly.
	InShape tensor.Shape
	// Weight is the model's fair-share weight in the batch arbiter.
	Weight float64
	// QueueCap is the model's resolved admission queue cap (0 =
	// unbounded).
	QueueCap int
	// Guarded reports whether the model registered a Scrub hook, i.e.
	// whether the fleet guard self-heals it.
	Guarded bool
}

// Models returns the registered models in registration order: the
// order of the Register calls that created the current registrations,
// so a model unregistered and re-registered under the same name moves
// to the end — the deterministic-order contract /v1/models and trace
// replay rely on. Models mid-drain after Unregister are already gone
// from the listing. The slice is a snapshot: models registered after
// the call are not reflected in it.
func (f *Fleet) Models() []ModelInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]ModelInfo, 0, len(f.order))
	for _, b := range f.order {
		if b.gone {
			continue
		}
		out = append(out, ModelInfo{
			Name:     b.name,
			InShape:  b.inShape.Clone(),
			Weight:   b.weight,
			QueueCap: b.cap,
			Guarded:  b.scrub != nil,
		})
	}
	return out
}

// ModelStats is one registered model's view of Fleet.Stats: the
// serve.Stats counters, batch-fill histogram, queue depth and
// bounded-window latency quantiles, plus the model's admission-control
// and fair-share configuration and the fleet guard's per-model scrub
// counters.
type ModelStats struct {
	// Stats carries the serve-level counters; its Queued field is
	// filled from the model's own admission queue (the quantity the
	// queue cap bounds).
	serve.Stats
	// Weight is the model's fair-share weight in the batch arbiter.
	Weight float64
	// QueueCap is the model's resolved admission queue cap (0 =
	// unbounded).
	QueueCap int
	// Scrubs counts fleet-guard self-heal cycles completed on this
	// model (StartGuard ticks plus ScrubOnce calls).
	Scrubs int64
	// Heals counts the subset of Scrubs whose detection pass flagged
	// errors and whose recovery verified clean (ScrubResult.Recovered):
	// cycles that repaired corrupted weights, not clean verifications.
	Heals int64
	// PartialHeals counts the Scrubs that flagged errors and left
	// approximate or failed layers behind: the model may answer wrongly.
	PartialHeals int64
	// ScrubFailures counts scrub cycles that returned an engine error.
	ScrubFailures int64
	// ScrubTime is the cumulative wall time the model's completed scrub
	// cycles have taken — the downtime numerator of the paper's Eq. 6
	// availability model, surfaced per model as the
	// milr_model_scrub_seconds_total series.
	ScrubTime time.Duration
}

// Stats is a point-in-time snapshot of the whole fleet, keyed by model
// name, plus fleet-level aggregates.
type Stats struct {
	// Models holds one ModelStats per registered model.
	Models map[string]ModelStats
	// Rejected is the fleet-wide total of fast-fail admission
	// rejections (the sum of every model's Rejected counter).
	Rejected int64
	// Admitted and Served aggregate the same per-model counters
	// fleet-wide — the one-line load summary. Both include the totals
	// of models that have since been unregistered (as does Rejected),
	// so the fleet-wide aggregates stay monotonic across model
	// lifecycles even though an unregistered model's own series are
	// dropped from Models the moment Unregister is called.
	Admitted, Served int64
	// Swaps counts Replace calls that succeeded — rolling-upgrade
	// cutovers performed over the fleet's lifetime.
	Swaps int64
	// Unregistered counts Unregister calls that succeeded (the drain
	// may still be running when a snapshot is taken).
	Unregistered int64
	// GEMMCalls is the process-wide GEMM kernel invocation count
	// (tensor.GEMMCalls) at snapshot time. It counts every stacked
	// product in the process — serving batches, scrub probes, recovery
	// sweeps — so its rate against Batches and Scrubs shows where the
	// kernel budget goes.
	GEMMCalls uint64
}

// Stats returns a snapshot of every model's counters plus fleet-level
// aggregates. See ModelStats and serve.Stats for field semantics. The
// metrics-lifecycle contract after Unregister: the model's per-model
// series are dropped from Models immediately (not frozen at their last
// value), while its admitted/served/rejected counts keep contributing
// to the fleet-wide aggregates — first live while the drain runs, then
// folded into the fleet's retired totals — so the aggregates never move
// backwards.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	// What Fleet.mu guards is copied out under it; each collector's
	// own snapshot is taken after the unlock.
	backends := make([]*backend, 0, len(f.order))
	var guarded []ModelStats
	var queued []int
	st := Stats{
		GEMMCalls:    tensor.GEMMCalls(),
		Swaps:        f.swaps,
		Unregistered: f.unregistered,
		Admitted:     f.retired.admitted,
		Served:       f.retired.served,
		Rejected:     f.retired.rejected,
	}
	var draining []*serve.Collector
	for _, b := range f.order {
		if b.gone {
			// Mid-drain: the model's series are already dropped, but its
			// counts must keep feeding the monotonic fleet aggregates
			// until they fold into the retired totals.
			draining = append(draining, b.stats)
			continue
		}
		backends = append(backends, b)
		queued = append(queued, len(b.pending))
		guarded = append(guarded, ModelStats{
			Weight:        b.weight,
			QueueCap:      b.cap,
			Scrubs:        b.scrubs,
			Heals:         b.heals,
			PartialHeals:  b.partial,
			ScrubFailures: b.scrubErr,
			ScrubTime:     b.scrubTime,
		})
	}
	f.mu.Unlock()
	for _, c := range draining {
		s := c.Snapshot()
		st.Rejected += s.Rejected
		st.Admitted += s.Admitted
		st.Served += s.Served
	}
	st.Models = make(map[string]ModelStats, len(backends))
	for i, b := range backends {
		ms := guarded[i]
		ms.Stats = b.stats.Snapshot()
		ms.Queued = queued[i]
		st.Models[b.name] = ms
		st.Rejected += ms.Rejected
		st.Admitted += ms.Admitted
		st.Served += ms.Served
	}
	return st
}
