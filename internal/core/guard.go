package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Guard runs MILR's detection phase on a schedule and triggers recovery
// when errors appear — the deployment loop behind the paper's
// availability–accuracy trade-off (§V-E): detection cadence is the knob
// that trades downtime for bounded error accumulation.
//
// The guard owns one background goroutine with an explicit lifecycle
// (Stop blocks until it has exited); it never fires and forgets.
type Guard struct {
	pr       *Protector
	interval time.Duration
	onEvent  func(GuardEvent)
	ctx      context.Context

	mu    sync.Mutex
	stats GuardStats

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// GuardStats aggregates what the guard has done so far.
type GuardStats struct {
	// Scrubs counts completed detection passes.
	Scrubs int
	// ErrorsDetected counts scrubs that flagged at least one layer.
	ErrorsDetected int
	// Recoveries counts recovery invocations.
	Recoveries int
	// FailedRecoveries counts recoveries that left approximate or failed
	// layers.
	FailedRecoveries int
	// Downtime accumulates time spent detecting and recovering — the
	// numerator of the availability model.
	Downtime time.Duration
}

// GuardEvent describes one scrub cycle, delivered to the OnEvent hook.
type GuardEvent struct {
	// Detection is the scrub's report.
	Detection *DetectionReport
	// Recovery is nil when no errors were detected.
	Recovery *RecoveryReport
	// Elapsed is the cycle's detection+recovery duration.
	Elapsed time.Duration
	// Err carries an engine failure; the guard keeps running.
	Err error
}

// GuardConfig configures NewGuard.
type GuardConfig struct {
	// Interval between detection passes.
	Interval time.Duration
	// OnEvent, when non-nil, receives every scrub cycle's outcome. It is
	// called from the guard goroutine; keep it fast.
	OnEvent func(GuardEvent)
	// Context, when non-nil, bounds the guard's lifetime: the scrub loop
	// exits once it is done, and in-flight scrub cycles are cancelled
	// through it (layer-atomically — see SelfHealContext). Stop still
	// works and still blocks until the goroutine has exited.
	Context context.Context
}

// NewGuard starts the scrub loop. Call Stop to shut it down.
func NewGuard(pr *Protector, cfg GuardConfig) (*Guard, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("core: guard interval must be positive, got %v", cfg.Interval)
	}
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	g := &Guard{
		pr:       pr,
		interval: cfg.Interval,
		onEvent:  cfg.OnEvent,
		ctx:      ctx,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go g.run()
	return g, nil
}

func (g *Guard) run() {
	defer close(g.done)
	ticker := time.NewTicker(g.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			g.scrub(g.ctx)
		case <-g.ctx.Done():
			return
		case <-g.stop:
			return
		}
	}
}

// scrub performs one detect(+recover) cycle under ctx. SelfHeal runs
// both phases under one engine lock, so Sync-routed mutation cannot
// land between detection and the recovery acting on its report.
func (g *Guard) scrub(ctx context.Context) {
	start := time.Now()
	det, rec, err := g.pr.SelfHealContext(ctx)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// The cycle was aborted by the guard's own context — shutdown,
		// not an engine failure. Drop the partial cycle: no stats, no
		// OnEvent (whose Err field is documented as an engine failure).
		// A genuine engine error that raced the cancellation is not a
		// context error and still reaches OnEvent below. The run loop
		// exits on its next select.
		return
	}
	detected, recovered := HealOutcome(det, rec, err)
	ev := GuardEvent{Detection: det, Err: err}
	if detected {
		ev.Recovery = rec // stays nil after a clean scrub: no recovery ran
	}
	ev.Elapsed = time.Since(start)

	g.mu.Lock()
	g.stats.Scrubs++
	g.stats.Downtime += ev.Elapsed
	if detected {
		g.stats.ErrorsDetected++
	}
	if ev.Recovery != nil {
		g.stats.Recoveries++
		if !recovered {
			g.stats.FailedRecoveries++
		}
	}
	g.mu.Unlock()

	if g.onEvent != nil {
		g.onEvent(ev)
	}
}

// ScrubNow runs one cycle synchronously (in the caller's goroutine),
// independent of the schedule — and independent of the guard's context,
// so it still performs a real detect(+recover) cycle after the scrub
// loop has shut down. Useful before answering a critical query.
func (g *Guard) ScrubNow() {
	g.scrub(context.Background())
}

// Stats returns a copy of the accumulated statistics.
func (g *Guard) Stats() GuardStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Stop signals the guard goroutine and waits for it to exit. It is
// idempotent and safe to call from several goroutines — every call
// returns once the goroutine is gone — so cancelling the guard's context
// and deferring Stop as well is fine.
func (g *Guard) Stop() {
	g.stopOnce.Do(func() { close(g.stop) })
	<-g.done
}
