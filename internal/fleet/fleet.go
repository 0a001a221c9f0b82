package fleet

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"milr/internal/nn"
	"milr/internal/obs"
	"milr/internal/par"
	"milr/internal/serve"
	"milr/internal/tensor"
)

// ErrQueueFull is returned by Predict and PredictBatch when a model's
// admission queue is at its configured cap. Callers should treat it as
// load shedding: the request was refused in O(1) without occupying a
// queue slot, and retrying later (or against another model) is safe.
// Every rejection wraps it in a *serve.QueueFullError, so errors.Is
// matches the sentinel and errors.As recovers which model's queue
// refused the request at what cap.
var ErrQueueFull = serve.ErrQueueFull

// ErrClosed is returned by Predict, PredictBatch and Register once
// Close has been called. Requests admitted before the close are still
// served (drain-on-close).
var ErrClosed = errors.New("fleet: fleet closed")

// ErrUnknownModel is returned by Predict and PredictBatch when the
// named model has never been registered. Every such rejection wraps
// this sentinel (with the offending name and the registered set in the
// message), so a routing layer can errors.Is it into a 404 instead of
// string-matching.
var ErrUnknownModel = errors.New("fleet: unknown model")

// Config configures New. The zero value is usable: one shared batch
// slot, batch size 1, no coalescing window, unbounded queues, no
// default deadline.
type Config struct {
	// Workers is the shared batch-execution budget arbitrated across
	// every registered model: at most this many coalesced batches run
	// concurrently, fleet-wide, whichever models they belong to. It
	// follows the repository's worker convention (0 = serial, n > 0 =
	// at most n, negative = GOMAXPROCS). Each batch's GEMM additionally
	// fans out over its own model's worker pool (Model.SetWorkers).
	Workers int
	// BatchSize is the largest number of requests coalesced into one
	// ForwardBatch GEMM per model. Values below 1 clamp to 1.
	BatchSize int
	// MaxDelay bounds how long a partial batch may wait in a model's
	// queue for more requests to coalesce. Zero means no waiting: the
	// dispatcher still coalesces whatever has already queued up (greedy
	// coalescing under backlog) but never holds a request back.
	MaxDelay time.Duration
	// QueueCap is the default per-model admission queue cap: the most
	// requests that may sit in one model's queue awaiting a batch.
	// 0 means unbounded (the pre-admission-control behaviour); a
	// model's ModelConfig.QueueCap overrides it.
	QueueCap int
	// Deadline, when positive, is applied to every Predict/PredictBatch
	// call whose context has no deadline of its own — the fleet-wide
	// default request deadline. Contexts that already carry a deadline
	// are never tightened or loosened.
	Deadline time.Duration
}

// ModelConfig configures one registered model.
type ModelConfig struct {
	// Weight is the model's fair-share weight in the batch arbiter:
	// over time, a backlogged model receives batch slots in proportion
	// to its weight, so one hot model cannot starve the rest. Values
	// <= 0 default to 1.
	Weight float64
	// QueueCap overrides Config.QueueCap for this model: > 0 sets the
	// cap, 0 inherits the fleet default, < 0 forces unbounded.
	QueueCap int
	// Gate, when non-nil, wraps every batch execution for this model.
	// The façade sets it to Protector.Sync for MILR-protected models,
	// which serializes this model's inference batches against its
	// engine's detect/recover cycles — without ever touching the other
	// models' throughput.
	Gate func(func())
	// Scrub, when non-nil, marks the model as self-healing: the fleet
	// guard (StartGuard) and ScrubOnce round-robin calls to it across
	// all such models. The façade wraps Protector.SelfHealContext,
	// folding the detection/recovery reports into the ScrubResult so
	// the fleet can count heals without importing the engine.
	Scrub func(context.Context) (ScrubResult, error)
}

// ScrubResult summarizes one self-heal scrub cycle on one model: it is
// what a ModelConfig.Scrub hook reports back so the fleet can separate
// clean detection passes from actual heals in its per-model counters.
type ScrubResult struct {
	// ErrorsDetected reports whether the cycle's detection pass flagged
	// at least one layer, i.e. whether a recovery ran at all.
	ErrorsDetected bool
	// Recovered reports whether the model verified clean after the
	// cycle: every flagged layer fully recovered, or nothing was
	// flagged in the first place. False means approximate or failed
	// recoveries remain.
	Recovered bool
}

// backend is one registered model: its queue, arbiter state and stats.
type backend struct {
	name    string
	inShape tensor.Shape

	// Guarded by Fleet.mu (Replace swaps them live; batch executors and
	// scrub cycles snapshot them under the lock before running):
	model  *nn.Model
	weight float64
	cap    int // resolved queue cap, 0 = unbounded
	gate   func(func())
	scrub  func(context.Context) (ScrubResult, error)

	// Guarded by Fleet.mu:
	pending   []*serve.Request
	inflight  bool    // one batch per model at a time (FIFO answers)
	pass      float64 // stride-scheduler virtual time: lowest pass flushes next
	scrubs    int64
	scrubErr  int64
	heals     int64         // scrub cycles that flagged errors and verified clean afterwards
	partial   int64         // scrub cycles that flagged errors and did not
	scrubTime time.Duration // cumulative wall time spent in completed scrub cycles

	// gone marks an unregistered backend: admission is already
	// impossible (it left the name map), the scrub rotation skips it,
	// and the dispatcher drains its remaining queue with no coalescing
	// delay. Once the queue is empty and no batch is in flight the
	// backend retires: it leaves the arbiter's order and drained closes.
	gone    bool
	drained chan struct{}

	stats *serve.Collector
}

// engine is the execution snapshot a dispatcher takes under Fleet.mu
// when it claims a batch: Replace swaps the backend's model and gate
// atomically with respect to batch boundaries, so one batch never sees
// half of each.
type engine struct {
	model *nn.Model
	gate  func(func())
}

// Fleet routes Predict/PredictBatch calls to per-model coalescing
// queues and arbitrates one shared batch-execution budget across all
// of them with weighted fair (stride) scheduling. Build one with New,
// add models with Register, and shut it down with Close; it is safe
// for concurrent use by any number of client goroutines.
type Fleet struct {
	batchSize int
	maxDelay  time.Duration
	queueCap  int
	deadline  time.Duration
	pool      *par.Pool

	mu       sync.Mutex
	backends map[string]*backend
	order    []*backend // registration order: deterministic iteration + tie-break
	// vtime is the arbiter's global virtual time: the highest fair-share
	// pass any backend had when it was picked. Backends (re-)entering
	// the runnable set are clamped up to it, so neither a newly
	// registered model nor one returning from a long idle spell can
	// replay its saved-up credit and monopolize the budget.
	vtime  float64
	closed bool
	// Lifecycle counters (swaps = Replace calls, unregistered =
	// Unregister calls) and the retired totals: when an unregistered
	// backend finishes draining, its admission counters fold into
	// retired so the fleet-wide aggregates in Stats stay monotonic even
	// though the model's own series are dropped.
	swaps        int64
	unregistered int64
	retired      struct{ admitted, served, rejected int64 }
	// scrubIdx is the round-robin cursor over self-healing models,
	// shared by the guard loop and ScrubOnce so a deterministic driver
	// and the wall-clock guard walk the same schedule.
	scrubIdx int

	// notify carries "something changed" wake-ups to the dispatcher; a
	// buffer of one is enough because the dispatcher re-examines every
	// queue on each wake-up.
	notify   chan struct{}
	done     chan struct{} // dispatcher exited
	closedCh chan struct{} // closed by Close; stops the guard loop
	// guardDone is the latest guard loop's exit signal (nil before the
	// first StartGuard). A loop runs exactly while it is open.
	guardDone chan struct{}

	// closeOnce makes Close idempotent: the shutdown sequence runs
	// exactly once, later and concurrent calls block until it has
	// finished and return the first call's result. A daemon's
	// signal-handler Close racing its deferred Close must not run the
	// drain twice.
	closeOnce sync.Once
	closeErr  error
}

// New builds an empty Fleet and starts its dispatcher goroutine.
func New(cfg Config) *Fleet {
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 1
	}
	if cfg.MaxDelay < 0 {
		cfg.MaxDelay = 0
	}
	if cfg.QueueCap < 0 {
		cfg.QueueCap = 0
	}
	f := &Fleet{
		batchSize: cfg.BatchSize,
		maxDelay:  cfg.MaxDelay,
		queueCap:  cfg.QueueCap,
		deadline:  cfg.Deadline,
		pool:      par.NewPool(cfg.Workers),
		backends:  map[string]*backend{},
		notify:    make(chan struct{}, 1),
		done:      make(chan struct{}),
		closedCh:  make(chan struct{}),
	}
	go f.run()
	return f
}

// Register adds a named model to the fleet. Models may be registered
// at any time before Close; a model registered while traffic is
// flowing starts with its fair-share account at the current frontier,
// so it neither monopolizes nor waits out the arbiter.
func (f *Fleet) Register(name string, m *nn.Model, mc ModelConfig) error {
	if name == "" {
		return fmt.Errorf("fleet: empty model name")
	}
	if m == nil {
		return fmt.Errorf("fleet: nil model for %q", name)
	}
	if mc.Weight <= 0 {
		mc.Weight = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if _, dup := f.backends[name]; dup {
		return fmt.Errorf("fleet: model %q already registered", name)
	}
	b := &backend{
		name:    name,
		model:   m,
		inShape: m.InShape(),
		weight:  mc.Weight,
		cap:     f.resolveCap(mc),
		gate:    mc.Gate,
		scrub:   mc.Scrub,
		drained: make(chan struct{}),
		pass:    f.vtime,
		stats:   serve.NewCollector(f.batchSize),
	}
	f.backends[name] = b
	f.order = append(f.order, b)
	return nil
}

// resolveCap resolves a model's admission queue cap against the fleet
// default: ModelConfig.QueueCap > 0 sets it, 0 inherits Config.QueueCap,
// < 0 forces unbounded (0).
func (f *Fleet) resolveCap(mc ModelConfig) int {
	switch {
	case mc.QueueCap > 0:
		return mc.QueueCap
	case mc.QueueCap < 0:
		return 0
	}
	return f.queueCap
}

// Unregister removes a named model from the fleet, under traffic, with
// zero dropped requests: new admissions fail with ErrUnknownModel the
// moment the call starts, the requests already admitted drain through
// the model's engine with no coalescing delay, the scrub rotation skips
// the model from now on, and once the queue is empty the model leaves
// the stride scheduler — its weight no longer shapes arbitration.
// Unregister blocks until that drain completes or ctx is done; an early
// ctx return leaves the drain running in the background (the requests
// are still answered). The model's per-model stats series are dropped,
// but its admitted/served/rejected totals fold into the fleet-wide
// aggregates, which therefore stay monotonic across the model's
// lifecycle.
func (f *Fleet) Unregister(ctx context.Context, name string) error {
	_, span := obs.Start(ctx, "fleet.swap")
	span.SetAttr("op", "unregister")
	span.SetAttr("model", name)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		span.SetAttr("outcome", "closed")
		span.End()
		return ErrClosed
	}
	b := f.backends[name]
	if b == nil {
		f.mu.Unlock()
		span.SetAttr("outcome", "unknown_model")
		span.End()
		return fmt.Errorf("%w %q", ErrUnknownModel, name)
	}
	delete(f.backends, name) // admission now misses: ErrUnknownModel
	b.gone = true
	f.unregistered++
	span.SetInt("drained", len(b.pending))
	f.retireLocked(b)
	drained := b.drained
	f.mu.Unlock()
	f.wake() // gone queues flush with no coalescing delay
	select {
	case <-drained:
		span.End()
		return nil
	case <-ctx.Done():
		span.SetAttr("outcome", "ctx_done")
		span.End()
		return ctx.Err()
	}
}

// Replace swaps the named model's engine under traffic: from the moment
// it returns, every new admission — and every request already waiting
// in the model's queue, which drains into the new engine — executes on
// m, while a batch already in flight on the old engine finishes there.
// No request is ever dropped or answered ErrClosed across the cutover.
// The new engine's input shape must equal the old's (queued requests
// were validated against it); mc is resolved exactly as in Register, so
// a zero ModelConfig resets weight to 1 and the queue cap to the fleet
// default — pass the full desired configuration, including the Gate and
// Scrub hooks for a protected engine. The model keeps its name, its
// queue, its registration-order position, its fair-share account and
// its stats series.
func (f *Fleet) Replace(ctx context.Context, name string, m *nn.Model, mc ModelConfig) error {
	if m == nil {
		return fmt.Errorf("fleet: nil model for %q", name)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if mc.Weight <= 0 {
		mc.Weight = 1
	}
	_, span := obs.Start(ctx, "fleet.swap")
	span.SetAttr("op", "replace")
	span.SetAttr("model", name)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		span.SetAttr("outcome", "closed")
		span.End()
		return ErrClosed
	}
	b := f.backends[name]
	if b == nil {
		f.mu.Unlock()
		span.SetAttr("outcome", "unknown_model")
		span.End()
		return fmt.Errorf("%w %q", ErrUnknownModel, name)
	}
	if !m.InShape().Equal(b.inShape) {
		f.mu.Unlock()
		span.SetAttr("outcome", "bad_shape")
		span.End()
		return fmt.Errorf("fleet: replacement for %q has input shape %v, want %v (queued requests were admitted against it)",
			name, m.InShape(), b.inShape)
	}
	b.model = m
	b.weight = mc.Weight
	b.cap = f.resolveCap(mc)
	b.gate = mc.Gate
	b.scrub = mc.Scrub
	f.swaps++
	span.SetInt("transferred", len(b.pending))
	f.mu.Unlock()
	f.wake()
	span.End()
	return nil
}

// retireLocked removes a drained, unregistered backend from the
// arbiter: once its queue is empty and no batch is in flight it leaves
// f.order (releasing its stride-scheduler weight), its admission totals
// fold into the fleet's retired aggregates, and its drained channel
// closes so Unregister can return. Caller holds f.mu; safe to call
// speculatively — it only acts when the backend is actually done.
func (f *Fleet) retireLocked(b *backend) {
	if !b.gone || b.inflight || len(b.pending) > 0 {
		return
	}
	for i, o := range f.order {
		if o == b {
			f.order = append(f.order[:i], f.order[i+1:]...)
			st := b.stats.Snapshot()
			f.retired.admitted += st.Admitted
			f.retired.served += st.Served
			f.retired.rejected += st.Rejected
			close(b.drained)
			return
		}
	}
}

// Predict routes one sample to the named model's queue and blocks until
// its coalesced batch has been served. The answer is bit-identical to a
// direct Model.Predict call. A fleet-wide default deadline (Config.
// Deadline) is applied when ctx has none; if ctx is done before the
// batch executes, Predict returns ctx's error and the request is
// dropped from its batch without affecting its neighbours.
func (f *Fleet) Predict(ctx context.Context, model string, x *tensor.Tensor) (int, error) {
	ctx, cancel := f.withDeadline(ctx)
	if cancel != nil {
		defer cancel()
	}
	r, err := f.enqueue(ctx, model, x)
	if err != nil {
		return 0, err
	}
	return r.Await(ctx)
}

// PredictBatch enqueues every sample of xs individually on the named
// model's queue — so a caller's samples coalesce with other callers' —
// and blocks until all are answered, returning the classes in input
// order. If admission fails partway (queue cap, malformed sample,
// Close), the samples already admitted but not yet executing are
// removed from the model's queue — a shed batch must not leave work
// behind that nobody will read. On the first error the remaining
// answers are discarded (their buffered result channels make that
// safe) and the error is returned.
func (f *Fleet) PredictBatch(ctx context.Context, model string, xs []*tensor.Tensor) ([]int, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("fleet: empty batch")
	}
	ctx, cancel := f.withDeadline(ctx)
	if cancel != nil {
		defer cancel()
	}
	reqs := make([]*serve.Request, len(xs))
	for i, x := range xs {
		r, err := f.enqueue(ctx, model, x)
		if err != nil {
			f.unqueue(model, reqs[:i])
			return nil, err
		}
		reqs[i] = r
	}
	out := make([]int, len(xs))
	for i, r := range reqs {
		class, err := r.Await(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = class
	}
	return out, nil
}

// withDeadline applies the fleet's default deadline to contexts that
// carry none. The returned cancel func is nil when ctx is unchanged.
func (f *Fleet) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if f.deadline <= 0 {
		return ctx, nil
	}
	if _, has := ctx.Deadline(); has {
		return ctx, nil
	}
	return context.WithTimeout(ctx, f.deadline)
}

// enqueue validates x, applies the model's admission control, and
// appends a queue entry. Validation happens here, per request, so one
// malformed input is rejected at the door instead of failing the whole
// batch it would have joined — and a request whose context is already
// expired never occupies a queue slot.
func (f *Fleet) enqueue(ctx context.Context, model string, x *tensor.Tensor) (*serve.Request, error) {
	if x == nil {
		return nil, fmt.Errorf("fleet: nil input")
	}
	// Admission span. Outcomes end it explicitly (not deferred): the
	// success path must record it while still holding f.mu — before the
	// dispatcher can see the request — so the ring always orders the
	// admit span ahead of everything the request's batch records.
	actx, admit := obs.Start(ctx, "fleet.admit")
	admit.SetAttr("model", model)
	f.mu.Lock()
	b := f.backends[model]
	if b == nil {
		names := make([]string, 0, len(f.order))
		for _, o := range f.order {
			if !o.gone {
				names = append(names, o.name)
			}
		}
		f.mu.Unlock()
		admit.SetAttr("outcome", "unknown_model")
		admit.End()
		return nil, fmt.Errorf("%w %q (registered: %v)", ErrUnknownModel, model, names)
	}
	if !x.Shape().Equal(b.inShape) {
		f.mu.Unlock()
		admit.SetAttr("outcome", "bad_shape")
		admit.End()
		return nil, fmt.Errorf("fleet: input shape %v does not match model %q input shape %v", x.Shape(), model, b.inShape)
	}
	if f.closed {
		admit.SetAttr("outcome", "closed")
		admit.End()
		f.mu.Unlock()
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		admit.SetAttr("outcome", "ctx_done")
		admit.End()
		f.mu.Unlock()
		return nil, err
	}
	if b.cap > 0 && len(b.pending) >= b.cap {
		b.stats.Reject()
		admit.SetAttr("outcome", "queue_full")
		admit.End()
		f.mu.Unlock()
		return nil, &serve.QueueFullError{Model: model, Cap: b.cap}
	}
	wctx, wait := obs.Start(actx, "fleet.queue_wait")
	wait.SetAttr("model", model)
	r := serve.NewRequest(wctx, x)
	r.SetWaitSpan(wait)
	if len(b.pending) == 0 && b.pass < f.vtime {
		// The model is (re-)entering the runnable set: clamp its account
		// up to the arbiter's virtual time so an idle spell earns no
		// saved-up priority over the models that kept serving.
		b.pass = f.vtime
	}
	b.pending = append(b.pending, r)
	// Counted before the request becomes visible to the dispatcher, so
	// a Stats snapshot can never show Served > Admitted or a negative
	// QueueDepth. The collector's mutex is a leaf lock.
	b.stats.Admit()
	admit.SetInt("queued", len(b.pending))
	admit.End()
	f.mu.Unlock()
	f.wake()
	return r, nil
}

// unqueue removes requests a failed PredictBatch admitted that are
// still waiting in the model's queue, recording them as cancelled.
// Requests the dispatcher already took into a batch are past removal —
// they are answered into their buffered channels and discarded.
func (f *Fleet) unqueue(model string, reqs []*serve.Request) {
	if len(reqs) == 0 {
		return
	}
	drop := make(map[*serve.Request]bool, len(reqs))
	for _, r := range reqs {
		drop[r] = true
	}
	removed := 0
	f.mu.Lock()
	b := f.backends[model]
	if b == nil {
		f.mu.Unlock()
		return
	}
	kept := b.pending[:0]
	for _, r := range b.pending {
		if drop[r] {
			r.EndWait("unqueued")
			removed++
			continue
		}
		kept = append(kept, r)
	}
	b.pending = kept
	for i := 0; i < removed; i++ {
		b.stats.Cancel()
	}
	f.mu.Unlock()
}

// wake nudges the dispatcher; a full buffer means a wake-up is already
// pending, which is just as good.
func (f *Fleet) wake() {
	select {
	case f.notify <- struct{}{}:
	default:
	}
}

// flushableLocked reports whether b's queue head is ready to execute:
// a full batch, an expired coalescing window, no window at all, a
// closing fleet, or a draining (unregistered) model — both drains flush
// immediately. Caller holds f.mu and has checked b.pending is non-empty
// and b is not inflight.
func (f *Fleet) flushableLocked(b *backend, now time.Time) bool {
	if f.closed || b.gone || f.maxDelay == 0 || len(b.pending) >= f.batchSize {
		return true
	}
	return !now.Before(b.pending[0].EnqueuedAt().Add(f.maxDelay))
}

// takeLocked drains up to one batch from b and charges b's fair-share
// account: pass advances by requests/weight, so a heavy queue with
// weight w flushes w× as often as a weight-1 one under contention. It
// also snapshots the execution engine: Replace swaps b.model/b.gate
// under f.mu, so capturing them at take time is what makes the cutover
// atomic at batch granularity. Caller holds f.mu.
func (f *Fleet) takeLocked(b *backend) ([]*serve.Request, engine) {
	n := f.batchSize
	if n > len(b.pending) {
		n = len(b.pending)
	}
	batch := make([]*serve.Request, n)
	copy(batch, b.pending[:n])
	b.pending = b.pending[n:]
	b.inflight = true
	if b.pass > f.vtime {
		f.vtime = b.pass
	}
	b.pass += float64(n) / b.weight
	return batch, engine{model: b.model, gate: b.gate}
}

// run is the dispatcher: one goroutine that owns arbitration. Each
// round it scans every model queue (registration order), picks — among
// the queues whose head batch is ready — the backend with the lowest
// fair-share pass, reserves one slot from the shared worker budget,
// and hands the batch to an executor. Per model, batches stay strictly
// sequential (FIFO answers); across models, up to the budget's capacity
// of batches run concurrently.
func (f *Fleet) run() {
	defer close(f.done)
	for {
		f.mu.Lock()
		now := time.Now()
		var pick *backend
		var nextDeadline time.Time
		idle := true
		for _, b := range f.order {
			if b.inflight {
				idle = false
				continue
			}
			if len(b.pending) == 0 {
				continue
			}
			idle = false
			if !f.flushableLocked(b, now) {
				dl := b.pending[0].EnqueuedAt().Add(f.maxDelay)
				if nextDeadline.IsZero() || dl.Before(nextDeadline) {
					nextDeadline = dl
				}
				continue
			}
			if pick == nil || b.pass < pick.pass {
				pick = b
			}
		}
		closed := f.closed
		if pick == nil {
			f.mu.Unlock()
			if closed && idle {
				return
			}
			if !nextDeadline.IsZero() {
				// Sleep until the earliest coalescing window expires,
				// unless something changes first.
				timer := time.NewTimer(time.Until(nextDeadline))
				select {
				case <-f.notify:
					timer.Stop()
				case <-timer.C:
				}
			} else {
				<-f.notify
			}
			continue
		}
		if !f.pool.TryAcquire() {
			// Budget exhausted: an executor's completion wake-up will
			// re-run the scan.
			f.mu.Unlock()
			<-f.notify
			continue
		}
		b := pick
		batch, eng := f.takeLocked(b)
		f.mu.Unlock()
		// The dispatcher's wake-up runs only after the pool slot is
		// visibly free again (Pool.Go's afterRelease ordering):
		// waking from inside the executor could be consumed before the
		// release and leave the dispatcher parked with work queued.
		f.pool.Go(func() { f.execute(b, eng, batch) }, f.wake)
	}
}

// execute answers one coalesced batch on a pool worker through the
// shared serve.ExecuteBatch machinery (cancellation at flush,
// gate-wrapped GEMM, per-request demux), then returns the model to the
// schedulable set — or retires it, if this was the last batch of an
// unregistered model's drain. The engine snapshot was taken under f.mu
// at batch-claim time, so a concurrent Replace cannot tear it. The
// dispatcher's wake-up is fired by the pool after the slot release, not
// here.
func (f *Fleet) execute(b *backend, eng engine, batch []*serve.Request) {
	serve.ExecuteBatch(eng.model, eng.gate, batch, b.stats, b.name)
	f.mu.Lock()
	b.inflight = false
	f.retireLocked(b)
	f.mu.Unlock()
}

// StartGuard starts the fleet-level self-heal scheduler: every interval
// it picks the next self-healing model (round-robin over the models
// registered with a Scrub hook, including ones registered later) and
// runs its scrub. Each scrub executes under that model's own engine
// lock, so it interleaves with that model's inference batches and never
// touches the other models. It is the tree's only scrub scheduler.
// The loop stops when ctx is done or the fleet closes; at most one
// guard runs per fleet at a time, and once a loop has stopped with its
// context a new one may be started.
func (f *Fleet) StartGuard(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("fleet: guard interval must be positive, got %v", interval)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.guardDone != nil {
		select {
		case <-f.guardDone:
		default:
			return fmt.Errorf("fleet: guard already running")
		}
	}
	if _, err := f.scrubbableLocked(); err != nil {
		return err
	}
	// The loop closes the channel it was started with, never the field:
	// a finished loop must not close its successor's signal.
	done := make(chan struct{})
	f.guardDone = done
	go f.guardLoop(ctx, interval, done)
	return nil
}

// scrubbableLocked returns the live self-healing models (those with a
// Scrub hook) in registration order, or the error the guard and
// ScrubOnce report when there are none. Caller holds f.mu.
func (f *Fleet) scrubbableLocked() ([]*backend, error) {
	var out []*backend
	for _, b := range f.order {
		if b.scrub != nil && !b.gone {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fleet: no self-healing models registered (none has a Scrub hook)")
	}
	return out, nil
}

// guardLoop round-robins scrubs across self-healing models until ctx is
// done or the fleet closes, then closes done.
func (f *Fleet) guardLoop(ctx context.Context, interval time.Duration, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-f.closedCh:
			return
		case <-ticker.C:
		}
		f.scrubNext(ctx)
	}
}

// scrubNext advances the shared round-robin cursor to the next
// self-healing model and runs its scrub in the calling goroutine,
// updating the model's scrub/heal/failure counters. It is the common
// core of the guard tick and ScrubOnce.
func (f *Fleet) scrubNext(ctx context.Context) (string, ScrubResult, error) {
	f.mu.Lock()
	scrubbable, err := f.scrubbableLocked()
	if err != nil {
		f.mu.Unlock()
		return "", ScrubResult{}, err
	}
	b := scrubbable[f.scrubIdx%len(scrubbable)]
	f.scrubIdx++
	// Snapshot the hook under the lock: Replace may swap b.scrub while
	// this cycle runs, and the cycle must belong entirely to the engine
	// that was current when the cursor picked it.
	scrub := b.scrub
	f.mu.Unlock()
	sctx, span := obs.Start(ctx, "fleet.scrub")
	span.SetAttr("model", b.name)
	t0 := time.Now()
	res, err := scrub(sctx)
	dur := time.Since(t0)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// Shutdown aborted the cycle mid-scrub (layer-atomically —
		// see the engine's context contract); drop the partial cycle
		// without counting it.
		span.SetAttr("outcome", "aborted")
		span.End()
		return b.name, res, err
	}
	span.SetAttr("detected", strconv.FormatBool(res.ErrorsDetected))
	span.SetAttr("recovered", strconv.FormatBool(res.Recovered))
	span.End()
	f.mu.Lock()
	b.scrubs++
	switch {
	case res.ErrorsDetected && res.Recovered:
		b.heals++
	case res.ErrorsDetected:
		b.partial++
	}
	if err != nil {
		b.scrubErr++
	}
	b.scrubTime += dur
	f.mu.Unlock()
	return b.name, res, err
}

// ScrubOnce runs exactly one self-heal scrub cycle synchronously in the
// caller's goroutine: the next self-healing model in the shared
// round-robin schedule (the same cursor StartGuard's ticker advances)
// is scrubbed, its counters are updated, and the model's name plus the
// cycle's ScrubResult are returned. Deterministic drivers — the chaos
// soak harness — use it in place of StartGuard so scrub cadence is part
// of the replayable schedule rather than wall-clock timing. It is safe
// to use concurrently with serving traffic (each scrub runs under its
// own model's engine gate) and may be combined with a running guard,
// though sharing the cursor then makes the interleaving timing-
// dependent.
func (f *Fleet) ScrubOnce(ctx context.Context) (string, ScrubResult, error) {
	if err := ctx.Err(); err != nil {
		return "", ScrubResult{}, err
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return "", ScrubResult{}, ErrClosed
	}
	f.mu.Unlock()
	return f.scrubNext(ctx)
}

// Close stops admission fleet-wide, serves every request admitted
// before the call on every model (drain-on-close), stops the guard
// loop, and returns once the dispatcher and all in-flight batch
// executors have exited. It is idempotent and safe to call
// concurrently — with itself and with in-flight Predict/PredictBatch
// calls: the shutdown sequence runs once, and every later or
// concurrent call waits for it to finish and returns the first call's
// result.
func (f *Fleet) Close() error {
	f.closeOnce.Do(func() {
		f.mu.Lock()
		f.closed = true
		guardDone := f.guardDone
		close(f.closedCh)
		f.mu.Unlock()
		f.wake()
		<-f.done
		f.pool.Wait()
		if guardDone != nil {
			<-guardDone
		}
		f.closeErr = nil
	})
	return f.closeErr
}
