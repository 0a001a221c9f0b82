package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"milr/internal/faults"
)

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
	var events []GuardEvent
	var evMu sync.Mutex
	g, err := NewGuard(pr, GuardConfig{
		Interval: time.Millisecond,
		OnEvent: func(ev GuardEvent) {
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
	newGuard := func(ctx context.Context) *Guard {
		g, err := NewGuard(pr, GuardConfig{Interval: 200 * time.Microsecond, Context: ctx})
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
	select {
	case <-g.done:
	default:
		t.Fatal("Stop returned before the guard goroutine exited")
	}
}
