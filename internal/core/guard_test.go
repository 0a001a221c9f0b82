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
// nothing itself: the fleet guard is the only scrub scheduler, so these
// tests register the protector as the only model of a milr.Fleet and
// drive it against the engine contracts it schedules — cancelled cycles
// dropped without stats, the Sync mutation gate, and a Close that joins
// the loop.

func tinyProtected(t *testing.T, seed uint64) (*nn.Model, *core.Protector) {
	t.Helper()
	m, err := nn.NewTinyNet()
	if err != nil {
		t.Fatalf("NewTinyNet: %v", err)
	}
	m.InitWeights(seed)
	pr, err := core.NewProtector(m, core.Options{Seed: seed})
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

// guardModel is the name the protector under test is registered as.
const guardModel = "guarded"

// guardFleet registers pr as the only model of a fleet: RegisterProtected
// wires its engine lock and its self-heal cycle, exactly as a served
// protected model is wired.
func guardFleet(t *testing.T, pr *core.Protector) *milr.Fleet {
	t.Helper()
	fl := milr.NewFleet(milr.NewRuntime())
	if err := fl.RegisterProtected(guardModel, pr); err != nil {
		t.Fatal(err)
	}
	return fl
}

// guardStats returns the guarded model's scrub counters.
func guardStats(fl *milr.Fleet) milr.ModelStats {
	return fl.Stats().Models[guardModel]
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
	m.SetWorkers(4)
	fl := guardFleet(t, pr)
	if err := fl.StartGuard(context.Background(), time.Millisecond); err != nil {
		t.Fatal(err)
	}

	const rounds = 40
	var wg sync.WaitGroup
	scrubErrs := make(chan error, rounds/2)
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
			if _, _, err := fl.ScrubOnce(context.Background()); err != nil {
				scrubErrs <- err
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()
	wg.Wait()
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	close(scrubErrs)
	for err := range scrubErrs {
		t.Fatalf("forced scrub cycle error: %v", err)
	}

	stats := guardStats(fl)
	if stats.Scrubs == 0 {
		t.Fatal("guard never scrubbed")
	}
	if stats.ScrubFailures != 0 {
		t.Fatalf("%d scrub cycles returned an engine error", stats.ScrubFailures)
	}

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
	m.SetWorkers(0)
}

// TestGuardStopIsIdempotent: callers typically both cancel the guard's
// context and defer Close, so stopping the guard must be idempotent —
// Close twice in a row, after a context cancel, and from two goroutines
// at once — and must join the loop.
func TestGuardStopIsIdempotent(t *testing.T) {
	_, pr := tinyProtected(t, 65)
	newGuard := func(ctx context.Context) *milr.Fleet {
		fl := guardFleet(t, pr)
		if err := fl.StartGuard(ctx, 200*time.Microsecond); err != nil {
			t.Fatal(err)
		}
		return fl
	}
	closeFleet := func(fl *milr.Fleet) {
		if err := fl.Close(); err != nil {
			t.Error(err)
		}
	}

	fl := newGuard(context.Background())
	closeFleet(fl)
	closeFleet(fl)

	ctx, cancel := context.WithCancel(context.Background())
	fl = newGuard(ctx)
	cancel()
	closeFleet(fl)
	closeFleet(fl)

	fl = newGuard(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			closeFleet(fl)
		}()
	}
	wg.Wait()
	// Close returned only once the loop had exited: no scrub is counted
	// after it, however long we wait.
	n := guardStats(fl).Scrubs
	time.Sleep(5 * time.Millisecond)
	if got := guardStats(fl).Scrubs; got != n {
		t.Fatalf("Close returned before the guard loop exited: %d scrubs, then %d", n, got)
	}
}

func TestGuardDetectsAndRecovers(t *testing.T) {
	m, pr := tinyProtected(t, 55)
	clean := m.Snapshot()
	fl := guardFleet(t, pr)
	defer fl.Close()
	ctx := context.Background()

	// Clean scrub.
	name, res, err := fl.ScrubOnce(ctx)
	if err != nil || name != guardModel {
		t.Fatalf("clean scrub: model %q, err %v", name, err)
	}
	if res.ErrorsDetected {
		t.Errorf("clean scrub flagged errors: %+v", res)
	}
	// Corrupt, scrub again.
	conv := m.Layer(0).(*nn.Conv2D)
	pr.Sync(func() { conv.Params().Data()[0] += 25 })
	if _, res, err = fl.ScrubOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if !res.ErrorsDetected || !res.Recovered {
		t.Errorf("corrupted scrub result %+v, want detected and recovered", res)
	}

	stats := guardStats(fl)
	if stats.Scrubs != 2 {
		t.Errorf("scrubs %d, want 2", stats.Scrubs)
	}
	if stats.Heals != 1 || stats.PartialHeals != 0 || stats.ScrubFailures != 0 {
		t.Errorf("stats %+v, want one heal", stats)
	}
	if stats.ScrubTime <= 0 {
		t.Error("no scrub time recorded")
	}
	if diff := maxParamDiff(clean, m.Snapshot()); diff > 1e-3 {
		t.Errorf("weights off by %g after guard recovery", diff)
	}
}

func TestGuardRunsOnSchedule(t *testing.T) {
	_, pr := tinyProtected(t, 56)
	fl := guardFleet(t, pr)
	if err := fl.StartGuard(context.Background(), 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for guardStats(fl).Scrubs < 2 {
		select {
		case <-deadline:
			fl.Close()
			t.Fatalf("guard performed %d scrubs in 2s", guardStats(fl).Scrubs)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	fl.Close()
	// After Close, no further scrubs.
	n := guardStats(fl).Scrubs
	time.Sleep(20 * time.Millisecond)
	if guardStats(fl).Scrubs != n {
		t.Error("guard scrubbed after Close")
	}
}

func TestGuardValidation(t *testing.T) {
	_, pr := tinyProtected(t, 57)
	fl := guardFleet(t, pr)
	defer fl.Close()
	if err := fl.StartGuard(context.Background(), 0); err == nil {
		t.Fatal("zero interval accepted")
	}
}

// TestGuardContextStopsLoop: the guard's context bounds its lifetime.
// Once it is cancelled the loop exits on its own, without a Close,
// which a fleet shows by accepting a new guard.
func TestGuardContextStopsLoop(t *testing.T) {
	_, pr := tinyProtected(t, 11)
	fl := guardFleet(t, pr)
	defer fl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	if err := fl.StartGuard(ctx, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for fl.StartGuard(context.Background(), time.Hour) != nil {
		if time.Now().After(deadline) {
			t.Fatal("guard did not stop after its context was cancelled")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGuardScrubNowAfterContextCancel: the guard's context ends the
// schedule, not the fleet — ScrubOnce still runs a real cycle and heals.
func TestGuardScrubNowAfterContextCancel(t *testing.T) {
	m, pr := tinyProtected(t, 58)
	clean := m.Snapshot()
	fl := guardFleet(t, pr)
	defer fl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	if err := fl.StartGuard(ctx, time.Hour); err != nil {
		t.Fatal(err)
	}
	cancel()
	pr.Sync(func() { m.Layer(0).(*nn.Conv2D).Params().Data()[0] += 25 })
	if _, _, err := fl.ScrubOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := guardStats(fl); st.Scrubs != 1 || st.Heals != 1 || st.PartialHeals != 0 {
		t.Fatalf("stats %+v, want one scrub that recovered", st)
	}
	if diff := maxParamDiff(clean, m.Snapshot()); diff > 1e-3 {
		t.Fatalf("weights off by %g after ScrubOnce", diff)
	}
}

// TestGuardApproximateLayerIsFailedRecovery: a cycle that leaves a layer
// Approximate counts as a partial heal, not a heal. The setup is the
// forced-partial MNIST case of TestBatchedSequentialRecoveryEquivalence
// (every conv in partial mode) with one conv overwritten whole, beyond
// what CRC localization can pin down.
func TestGuardApproximateLayerIsFailedRecovery(t *testing.T) {
	m, err := nn.NewMNISTNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(31)
	opts := core.Options{Seed: 31}
	opts.MaxFullSolveTaps = 1
	pr, err := core.NewProtector(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	fl := guardFleet(t, pr)
	defer fl.Close()
	faults.New(9001).OverwriteLayer(m.Layer(0).(nn.Parameterized))
	_, res, err := fl.ScrubOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res != (milr.ScrubResult{ErrorsDetected: true, Recovered: false}) {
		t.Fatalf("scrub result %+v, want detected and not recovered", res)
	}
	if st := guardStats(fl); st.Scrubs != 1 || st.Heals != 0 || st.PartialHeals != 1 || st.ScrubFailures != 0 {
		t.Fatalf("stats %+v, want the cycle counted as a partial heal", st)
	}
}
