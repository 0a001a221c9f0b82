package core_test

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"milr"
	"milr/internal/core"
	"milr/internal/faults"
	"milr/internal/nn"
	"milr/internal/tensor"
)

// The deployment scrub loop over one protector. The engine schedules
// nothing itself: milr.Guard is a fleet of one, so these tests drive the
// façade's guard against the engine contracts it schedules — cancelled
// cycles dropped without stats or events, the Sync mutation gate, and
// a Stop that joins the loop.

func tinyProtected(t *testing.T, seed uint64) (*nn.Model, *core.Protector) {
	t.Helper()
	m, err := nn.NewTinyNet()
	if err != nil {
		t.Fatalf("NewTinyNet: %v", err)
	}
	m.InitWeights(seed)
	pr, err := core.NewProtector(m, core.DefaultOptions(seed))
	if err != nil {
		t.Fatalf("NewProtector: %v", err)
	}
	return m, pr
}

func maxParamDiff(a, b map[int]*tensor.Tensor) float64 {
	var worst float64
	for k, ta := range a {
		d, err := ta.MaxAbsDiff(b[k])
		if err != nil {
			return math.Inf(1)
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TestGuardConcurrentScrubAndInjection is the race floor for the
// deployment loop: a guard scrubbing on a tight schedule, a second
// goroutine forcing extra scrub cycles, and a third injecting faults
// through the Sync mutation gate — all against one protector running
// its internal solvers on a worker pool. Run under -race (CI does),
// this pins the engine's synchronization contract: Sync-routed writes
// never race with detection or recovery.
func TestGuardConcurrentScrubAndInjection(t *testing.T) {
	m, pr := tinyProtected(t, 64)
	pr.SetWorkers(4)
	var events []milr.GuardEvent
	var evMu sync.Mutex
	g, err := milr.NewGuard(pr, milr.GuardConfig{
		Interval: time.Millisecond,
		OnEvent: func(ev milr.GuardEvent) {
			evMu.Lock()
			events = append(events, ev)
			evMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		inj := faults.New(4242)
		for i := 0; i < rounds; i++ {
			// Sync is the mutation gate: the injection is serialized
			// against the guard's concurrent detect/recover cycles.
			pr.Sync(func() {
				inj.FlipExactBits(m, 3)
			})
			time.Sleep(200 * time.Microsecond)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/2; i++ {
			g.ScrubNow()
			time.Sleep(300 * time.Microsecond)
		}
	}()
	wg.Wait()
	g.Stop()

	stats := g.Stats()
	if stats.Scrubs == 0 {
		t.Fatal("guard never scrubbed")
	}
	evMu.Lock()
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("scrub cycle error: %v", ev.Err)
		}
	}
	evMu.Unlock()

	// The storm is over; healing must converge to a clean network (more
	// than one pass is legal when several layers between two checkpoints
	// were dirty at once — the paper's sequential-recovery caveat, §V-A).
	clean := false
	for attempt := 0; attempt < 3 && !clean; attempt++ {
		if _, _, err := pr.SelfHeal(); err != nil {
			t.Fatal(err)
		}
		rep, err := pr.Detect()
		if err != nil {
			t.Fatal(err)
		}
		clean = !rep.HasErrors()
	}
	if !clean {
		t.Fatal("network still dirty after three heal passes")
	}
	pr.SetWorkers(0)
}

// TestGuardStopIsIdempotent: Stop used to close its channel bare, so a
// second call panicked. Callers typically both cancel the guard's
// context and defer Stop, and Fleet.Close/Server.Close are idempotent;
// Stop now is too — twice in a row, after a context cancel, and from
// two goroutines at once.
func TestGuardStopIsIdempotent(t *testing.T) {
	_, pr := tinyProtected(t, 65)
	newGuard := func(ctx context.Context) *milr.Guard {
		g, err := milr.NewGuard(pr, milr.GuardConfig{Interval: 200 * time.Microsecond, Context: ctx})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	g := newGuard(context.Background())
	g.Stop()
	g.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	g = newGuard(ctx)
	cancel()
	g.Stop()
	g.Stop()

	g = newGuard(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Stop()
		}()
	}
	wg.Wait()
	// Stop returned only once the loop had exited: no scrub is counted
	// after it, however long we wait.
	n := g.Stats().Scrubs
	time.Sleep(5 * time.Millisecond)
	if got := g.Stats().Scrubs; got != n {
		t.Fatalf("Stop returned before the guard loop exited: %d scrubs, then %d", n, got)
	}
}

func TestGuardDetectsAndRecovers(t *testing.T) {
	m, pr := tinyProtected(t, 55)
	clean := m.Snapshot()
	var mu sync.Mutex
	var events []milr.GuardEvent
	g, err := milr.NewGuard(pr, milr.GuardConfig{
		Interval: time.Hour, // never fires on its own during the test
		OnEvent: func(ev milr.GuardEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	// Clean scrub.
	g.ScrubNow()
	// Corrupt, scrub again.
	conv := m.Layer(0).(*nn.Conv2D)
	conv.Params().Data()[0] += 25
	g.ScrubNow()

	stats := g.Stats()
	if stats.Scrubs != 2 {
		t.Errorf("scrubs %d, want 2", stats.Scrubs)
	}
	if stats.ErrorsDetected != 1 || stats.Recoveries != 1 {
		t.Errorf("stats %+v", stats)
	}
	if stats.FailedRecoveries != 0 {
		t.Errorf("failed recoveries %d", stats.FailedRecoveries)
	}
	if stats.Downtime <= 0 {
		t.Error("no downtime recorded")
	}
	mu.Lock()
	n := len(events)
	mu.Unlock()
	if n != 2 {
		t.Errorf("events %d, want 2", n)
	}
	if diff := maxParamDiff(clean, m.Snapshot()); diff > 1e-3 {
		t.Errorf("weights off by %g after guard recovery", diff)
	}
}

func TestGuardRunsOnSchedule(t *testing.T) {
	_, pr := tinyProtected(t, 56)
	g, err := milr.NewGuard(pr, milr.GuardConfig{Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for g.Stats().Scrubs < 2 {
		select {
		case <-deadline:
			g.Stop()
			t.Fatalf("guard performed %d scrubs in 2s", g.Stats().Scrubs)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	g.Stop()
	// After Stop, no further scrubs.
	n := g.Stats().Scrubs
	time.Sleep(20 * time.Millisecond)
	if g.Stats().Scrubs != n {
		t.Error("guard scrubbed after Stop")
	}
}

func TestGuardValidation(t *testing.T) {
	_, pr := tinyProtected(t, 57)
	if _, err := milr.NewGuard(pr, milr.GuardConfig{Interval: 0}); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestGuardContextStopsLoop(t *testing.T) {
	_, pr := tinyProtected(t, 11)
	ctx, cancel := context.WithCancel(context.Background())
	g, err := milr.NewGuard(pr, milr.GuardConfig{Interval: time.Millisecond, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	done := make(chan struct{})
	go func() {
		g.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("guard did not stop after its context was cancelled")
	}
}

// TestGuardScrubNowAfterContextCancel: the guard's context ends the
// schedule, not the guard — ScrubNow still runs a real cycle and heals.
func TestGuardScrubNowAfterContextCancel(t *testing.T) {
	m, pr := tinyProtected(t, 58)
	clean := m.Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	g, err := milr.NewGuard(pr, milr.GuardConfig{Interval: time.Hour, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	cancel()
	pr.Sync(func() { m.Layer(0).(*nn.Conv2D).Params().Data()[0] += 25 })
	g.ScrubNow()
	if st := g.Stats(); st.Scrubs != 1 || st.Recoveries != 1 || st.FailedRecoveries != 0 {
		t.Fatalf("stats %+v, want one scrub that recovered", st)
	}
	if diff := maxParamDiff(clean, m.Snapshot()); diff > 1e-3 {
		t.Fatalf("weights off by %g after ScrubNow", diff)
	}
}

// TestGuardApproximateLayerIsFailedRecovery: a cycle that leaves a layer
// Approximate counts as a recovery that failed. The setup is the
// forced-partial MNIST case of TestBatchedSequentialRecoveryEquivalence
// (every conv in partial mode) with one conv overwritten whole, beyond
// what CRC localization can pin down.
func TestGuardApproximateLayerIsFailedRecovery(t *testing.T) {
	m, err := nn.NewMNISTNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(31)
	opts := core.DefaultOptions(31)
	opts.MaxFullSolveTaps = 1
	pr, err := core.NewProtector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	var rec *core.RecoveryReport
	g, err := milr.NewGuard(pr, milr.GuardConfig{
		Interval: time.Hour,
		OnEvent:  func(ev milr.GuardEvent) { rec = ev.Recovery },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	faults.New(9001).OverwriteLayer(m.Layer(0).(nn.Parameterized))
	g.ScrubNow()
	if rec == nil {
		t.Fatal("overwritten conv was not detected; test is vacuous")
	}
	approximate := false
	for _, r := range rec.Results {
		approximate = approximate || r.Status == core.Approximate
	}
	if !approximate {
		t.Fatalf("no layer left Approximate; test is vacuous: %+v", rec.Results)
	}
	if st := g.Stats(); st.Recoveries != 1 || st.FailedRecoveries != 1 {
		t.Fatalf("stats %+v, want the recovery counted as failed", st)
	}
}
