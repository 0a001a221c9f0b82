package milr

import (
	"context"
	"fmt"
	"time"

	"milr/internal/fleet"
)

// Guard runs MILR's detection phase on a schedule and recovers
// automatically — the deployment loop behind the paper's
// availability–accuracy trade-off (§V-E). It is a fleet of one: the
// protector is the only model of a private fleet, so its cycles run on
// the fleet guard's ticker and land in the same per-model counters and
// fleet.scrub spans as every Fleet model's.
type Guard struct {
	f *fleet.Fleet
}

// guardModel is the name a Guard's protector is registered under.
const guardModel = "guard"

// GuardConfig configures NewGuard and Runtime.Guard.
type GuardConfig struct {
	// Interval between detection passes.
	Interval time.Duration
	// OnEvent, when non-nil, receives every scrub cycle's outcome, from
	// the goroutine running the cycle and before Stats counts it. Keep
	// it fast.
	OnEvent func(GuardEvent)
	// Context, when non-nil, bounds the guard's lifetime: the scrub loop
	// exits once it is done, and in-flight scrub cycles are cancelled
	// through it (layer-atomically — see SelfHealContext).
	Context context.Context
}

// GuardStats aggregates what the guard has done so far: its model's
// ModelStats in Guard terms. A cycle cancelled by the guard's context
// counts nowhere; a recovery that returned an engine error counts as a
// failed one.
type GuardStats struct {
	// Scrubs counts completed detection passes.
	Scrubs int
	// ErrorsDetected counts scrubs that flagged at least one layer.
	ErrorsDetected int
	// Recoveries counts recovery invocations, one per ErrorsDetected.
	Recoveries int
	// FailedRecoveries counts recoveries that left approximate or failed
	// layers, or returned an engine error.
	FailedRecoveries int
	// Downtime accumulates time spent detecting and recovering — the
	// numerator of the availability model (ModelStats.ScrubTime).
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

// NewGuard starts a background scrub loop over a protected model; call
// Stop to shut it down. Set GuardConfig.Context (or use Runtime.Guard)
// to bound its lifetime with a context.
func NewGuard(pr *Protector, cfg GuardConfig) (*Guard, error) {
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	// No Gate: the guard serves nothing, and SelfHealContext takes the
	// engine lock itself.
	f := fleet.New(fleet.Config{})
	err := f.Register(guardModel, pr.Model(), fleet.ModelConfig{Scrub: protectorScrub(pr, cfg.OnEvent)})
	if err == nil {
		err = f.StartGuard(ctx, cfg.Interval)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Guard{f: f}, nil
}

// Guard is NewGuard under the given context: the loop exits once ctx is
// done (Stop also still works), and in-flight scrub cycles are
// cancelled layer-atomically. Setting GuardConfig.Context as well is
// rejected rather than silently overridden.
func (rt *Runtime) Guard(ctx context.Context, pr *Protector, cfg GuardConfig) (*Guard, error) {
	if cfg.Context != nil && cfg.Context != ctx {
		return nil, fmt.Errorf("milr: pass the guard's context either to Runtime.Guard or in GuardConfig.Context, not both")
	}
	cfg.Context = ctx
	return NewGuard(pr, cfg)
}

// ScrubNow runs one cycle synchronously in the caller's goroutine,
// independent of the schedule and of the guard's context, so it still
// heals after the loop has stopped with its context. After Stop it does
// nothing.
func (g *Guard) ScrubNow() {
	// Engine errors reach OnEvent; after Stop, ErrClosed is the no-op.
	_, _, _ = g.f.ScrubOnce(context.Background())
}

// Stats returns a copy of the accumulated statistics.
func (g *Guard) Stats() GuardStats {
	ms := g.f.Stats().Models[guardModel]
	healed := int(ms.Heals + ms.PartialHeals)
	return GuardStats{Scrubs: int(ms.Scrubs), ErrorsDetected: healed, Recoveries: healed,
		FailedRecoveries: int(ms.PartialHeals), Downtime: ms.ScrubTime}
}

// Stop shuts the scrub loop down and waits for it to exit. It is
// idempotent and safe to call from several goroutines, so cancelling
// the guard's context and deferring Stop as well is fine.
func (g *Guard) Stop() {
	g.f.Close()
}
