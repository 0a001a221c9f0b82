package milr

import (
	"context"
	"time"

	"milr/internal/core"
	"milr/internal/fleet"
	"milr/internal/serve"
)

// This file is the multi-model serving surface: one milr.Fleet routes
// Predict calls to N named models over per-model coalescing queues and
// a single shared batch-execution budget, with weighted fair
// arbitration and admission control. See internal/fleet for the
// routing design and ARCHITECTURE.md for the layer map.

// ErrQueueFull is returned by Fleet.Predict / Fleet.PredictBatch when
// the target model's admission queue is at its configured cap
// (WithQueueCap / WithModelQueueCap). The request was refused in O(1)
// without occupying a queue slot — shed load or retry later.
var ErrQueueFull = fleet.ErrQueueFull

// ErrFleetClosed is returned by Fleet methods once Fleet.Close has
// been called; requests admitted before the close are still served.
var ErrFleetClosed = fleet.ErrClosed

// ErrUnknownModel is returned by Fleet.Predict / Fleet.PredictBatch
// when the named model has never been registered. A routing layer (the
// gateway maps it to 404) matches it with errors.Is instead of string
// matching.
var ErrUnknownModel = fleet.ErrUnknownModel

// QueueFullError is the concrete error behind every ErrQueueFull
// rejection: errors.Is(err, ErrQueueFull) still matches, and errors.As
// additionally recovers which model's queue refused the request and at
// what cap — the detail the gateway puts in its 429 bodies.
type QueueFullError = serve.QueueFullError

// ModelInfo describes one registered fleet model: routing name, the
// input shape every sample must match, and its resolved fair-share and
// admission configuration. See Fleet.Models.
type ModelInfo = fleet.ModelInfo

// FleetStats is a Fleet.Stats snapshot: one ModelStats per registered
// model plus fleet-wide admission/rejection aggregates.
type FleetStats = fleet.Stats

// ModelStats is one model's slice of FleetStats: its serving counters
// (queue depth, batch-fill histogram, bounded-window p50/p99), its
// fair-share weight and resolved queue cap, and the fleet guard's
// scrub/heal counters — Scrubs, Heals, PartialHeals, ScrubFailures and
// ScrubTime, the downtime numerator of the availability model.
type ModelStats = fleet.ModelStats

// ScrubResult summarizes one fleet self-heal scrub cycle: whether the
// detection pass flagged errors (a heal ran) and whether the model
// verified clean afterwards. Returned by Fleet.ScrubOnce and counted
// into ModelStats.Heals or, when it did not, ModelStats.PartialHeals.
type ScrubResult = fleet.ScrubResult

// ModelOption configures one model at Fleet.Register /
// Fleet.RegisterProtected time.
type ModelOption func(*fleet.ModelConfig)

// WithModelWeight sets the model's fair-share weight in the fleet's
// batch arbiter: under contention a model with weight w receives batch
// slots in proportion to w, so one hot model cannot starve the rest.
// Values <= 0 default to 1.
func WithModelWeight(w float64) ModelOption {
	return func(mc *fleet.ModelConfig) { mc.Weight = w }
}

// WithModelQueueCap overrides the fleet-wide WithQueueCap for one
// model: n > 0 caps its admission queue at n, n < 0 forces it
// unbounded. Zero keeps the fleet default.
func WithModelQueueCap(n int) ModelOption {
	return func(mc *fleet.ModelConfig) { mc.QueueCap = n }
}

// Fleet serves several named models at once: each model has its own
// batch-coalescing admission queue, and one shared execution budget
// (WithWorkers) is arbitrated across them with weighted fair
// scheduling. Build one with NewFleet, add models with Register or
// RegisterProtected, and shut it down with Close. Answers are
// bit-identical to direct per-model Predict calls; it is safe for
// concurrent use by any number of client goroutines.
type Fleet struct {
	f  *fleet.Fleet
	rt *Runtime
}

// NewFleet builds an empty multi-model router from the runtime's
// serving policy: WithWorkers bounds how many coalesced batches run
// concurrently fleet-wide (the shared worker budget), WithBatchSize
// and WithMaxBatchDelay set each model's coalescing, WithQueueCap the
// default per-model admission cap, and WithDefaultDeadline the
// deadline applied to requests whose context has none.
func NewFleet(rt *Runtime) *Fleet {
	return &Fleet{f: fleet.New(fleet.Config{
		Workers:   rt.workers,
		BatchSize: rt.batch,
		MaxDelay:  rt.maxDelay,
		QueueCap:  rt.queueCap,
		Deadline:  rt.deadline,
	}), rt: rt}
}

// wire resolves what Register/Replace hand the dispatcher: the model
// (pr's, when pr is non-nil) with the runtime's explicit worker policy
// applied to it, and opts folded into a ModelConfig — with the Gate and
// Scrub hooks wired to pr for a protected engine, so a swapped-in
// protected engine serves and scrubs exactly like a registered one.
func (fl *Fleet) wire(m *Model, pr *Protector, opts []ModelOption) (*Model, fleet.ModelConfig) {
	var mc fleet.ModelConfig
	for _, o := range opts {
		o(&mc)
	}
	if pr != nil {
		m = pr.Model()
		mc.Gate = pr.Sync
		mc.Scrub = protectorScrub(pr)
	}
	fl.rt.tune(m)
	return m, mc
}

// Register adds a named, unprotected model to the fleet. An explicit
// worker policy (WithWorkers) is applied to the model, as in
// Runtime.Protect. Models may be registered while traffic flows.
func (fl *Fleet) Register(name string, m *Model, opts ...ModelOption) error {
	m, mc := fl.wire(m, nil, opts)
	return fl.f.Register(name, m, mc)
}

// RegisterProtected adds a MILR-protected model: its batches execute
// inside the protector's engine lock (Protector.Sync), so they
// serialize against that model's detect/recover cycles — a scrub
// observes quiescent weights, inference observes fully-recovered ones —
// while admission keeps accepting requests, so a self-heal pause
// delays answers rather than refusing them. The fleet guard
// (StartGuard) and ScrubOnce include the model in their round-robin
// self-heal schedule. Other models' traffic is never blocked by this
// model's scrubs.
func (fl *Fleet) RegisterProtected(name string, pr *Protector, opts ...ModelOption) error {
	m, mc := fl.wire(nil, pr, opts)
	return fl.f.Register(name, m, mc)
}

// protectorScrub adapts a Protector's self-heal cycle to the fleet's
// Scrub hook, folding the detection/recovery reports into a ScrubResult
// so the fleet can count heals without importing the engine.
func protectorScrub(pr *Protector) func(context.Context) (fleet.ScrubResult, error) {
	return func(ctx context.Context) (fleet.ScrubResult, error) {
		det, rec, err := pr.SelfHealContext(ctx)
		var res fleet.ScrubResult
		res.ErrorsDetected, res.Recovered = core.HealOutcome(det, rec, err)
		return res, err
	}
}

// Unregister removes a named model from the fleet under live traffic
// with zero dropped requests: new admissions fail with ErrUnknownModel
// immediately, every already-admitted request still gets its answer
// while the model's queue drains, the fleet guard's rotation skips the
// model, and its fair-share weight leaves the arbiter once the drain
// ends. Unregister blocks until the drain completes or ctx is done; an
// early ctx return leaves the drain running in the background. The
// model's per-model stats series are dropped, but its totals keep
// counting in the fleet-wide aggregates, which stay monotonic.
func (fl *Fleet) Unregister(ctx context.Context, name string) error {
	return fl.f.Unregister(ctx, name)
}

// Replace swaps the named model's engine under live traffic — the
// rolling-upgrade primitive. From the moment it returns, new admissions
// and the requests already queued execute on m; a batch already in
// flight finishes on the old engine. No request is ever dropped or
// answered ErrFleetClosed across the cutover. The new engine's input
// shape must equal the old's, and opts are resolved exactly as in
// Register — a bare Replace resets weight and queue cap to their
// defaults, so pass the full desired configuration. The model keeps its
// name, queue, registration-order position, fair-share account and
// stats series.
func (fl *Fleet) Replace(ctx context.Context, name string, m *Model, opts ...ModelOption) error {
	m, mc := fl.wire(m, nil, opts)
	return fl.f.Replace(ctx, name, m, mc)
}

// ReplaceProtected swaps the named model's engine for a MILR-protected
// one, with Replace's zero-drop cutover semantics: the new engine's
// batches run inside pr's engine lock and the fleet guard scrubs it in
// the round-robin schedule, exactly as if it had been registered with
// RegisterProtected.
func (fl *Fleet) ReplaceProtected(ctx context.Context, name string, pr *Protector, opts ...ModelOption) error {
	m, mc := fl.wire(nil, pr, opts)
	return fl.f.Replace(ctx, name, m, mc)
}

// Predict routes one sample to the named model and blocks until its
// coalesced batch has been served; the answer is bit-identical to a
// direct Model.Predict call. It returns ErrQueueFull when the model's
// queue is at cap, ErrFleetClosed after Close, and the context's error
// if ctx — or the fleet's default deadline (WithDefaultDeadline) —
// expires first.
func (fl *Fleet) Predict(ctx context.Context, model string, x *Tensor) (int, error) {
	return fl.f.Predict(ctx, model, x)
}

// PredictBatch enqueues every sample individually on the named model's
// queue — so a caller's samples coalesce with other callers' — and
// blocks until all are answered, returning classes in input order.
func (fl *Fleet) PredictBatch(ctx context.Context, model string, xs []*Tensor) ([]int, error) {
	return fl.f.PredictBatch(ctx, model, xs)
}

// StartGuard starts the fleet's self-heal scheduler: every interval it
// scrubs the next protected model (round-robin over every
// RegisterProtected model, including ones registered later), each
// scrub running under its own model's engine lock. The loop stops when
// ctx is done or the fleet closes; at most one guard runs per fleet.
func (fl *Fleet) StartGuard(ctx context.Context, interval time.Duration) error {
	return fl.f.StartGuard(ctx, interval)
}

// ScrubOnce runs exactly one self-heal scrub cycle synchronously: the
// next protected model in the same round-robin schedule StartGuard
// walks is scrubbed in the caller's goroutine, and its name plus the
// cycle's ScrubResult are returned. Deterministic drivers (the chaos
// soak harness) use it instead of StartGuard so scrub cadence is part
// of a replayable schedule rather than wall-clock timing.
func (fl *Fleet) ScrubOnce(ctx context.Context) (string, ScrubResult, error) {
	return fl.f.ScrubOnce(ctx)
}

// Stats returns a snapshot of every model's serving counters plus
// fleet-level aggregates. See FleetStats and ModelStats.
func (fl *Fleet) Stats() FleetStats {
	return fl.f.Stats()
}

// Models returns the registered models in registration order: name,
// input shape, fair-share weight, resolved queue cap, and whether the
// fleet guard self-heals the model. The gateway uses it to validate
// request payload shapes and to answer its model-index route.
func (fl *Fleet) Models() []ModelInfo {
	return fl.f.Models()
}

// Close stops admission fleet-wide, serves every request admitted
// before the call on every model, stops the guard loop, and returns
// once all dispatch and batch-execution goroutines have exited. Safe
// to call more than once.
func (fl *Fleet) Close() error {
	return fl.f.Close()
}

// WithQueueCap sets the default admission queue cap — the most
// requests that may wait in one model queue of a Fleet built from this
// runtime. At cap, admission fast-fails with ErrQueueFull — the
// open-loop overload story. 0 (the default) means unbounded. Override
// per model with WithModelQueueCap.
func WithQueueCap(n int) Option {
	return func(rt *Runtime) {
		if n < 0 {
			n = 0
		}
		rt.queueCap = n
	}
}

// WithDefaultDeadline sets the deadline a Fleet applies to every
// Predict/PredictBatch call whose context has no deadline of its own,
// so an open-loop client can never wait unboundedly. Zero (the default) applies none; contexts that already
// carry a deadline are never altered.
func WithDefaultDeadline(d time.Duration) Option {
	return func(rt *Runtime) {
		if d < 0 {
			d = 0
		}
		rt.deadline = d
	}
}
