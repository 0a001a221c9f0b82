package milr_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"milr"
	"milr/internal/faults"
	"milr/internal/prng"
)

// fleetNet bundles one model with probe inputs and their direct
// (unrouted) answers — the bit-identity baseline.
type fleetNet struct {
	name  string
	model *milr.Model
	xs    []*milr.Tensor
	want  []int
}

func buildFleetNet(t *testing.T, name string, build func() (*milr.Model, error), seed uint64, n int) fleetNet {
	t.Helper()
	m, err := build()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(seed)
	stream := prng.New(seed + 500)
	fn := fleetNet{name: name, model: m, xs: make([]*milr.Tensor, n), want: make([]int, n)}
	shape := m.InShape()
	for i := range fn.xs {
		fn.xs[i] = stream.Tensor(shape...)
		fn.want[i], err = m.Predict(fn.xs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	return fn
}

// TestFleetBitIdentity is the fleet acceptance test: K concurrent
// clients spread across M models (two tiny nets with different weights
// and one MNIST net — different architectures, input shapes and
// answers) must receive, through the shared-budget router, answers
// bit-identical to direct per-model Predict/PredictBatch calls, at
// serial and pooled worker counts.
func TestFleetBitIdentity(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const perModel = 16
			nets := []fleetNet{
				buildFleetNet(t, "tiny-a", milr.NewTinyNet, 1, perModel),
				buildFleetNet(t, "tiny-b", milr.NewTinyNet, 2, perModel),
				buildFleetNet(t, "mnist", milr.NewMNISTNet, 3, perModel),
			}
			rt := milr.NewRuntime(
				milr.WithSeed(42),
				milr.WithWorkers(workers),
				milr.WithBatchSize(4),
				milr.WithMaxBatchDelay(2*time.Millisecond),
			)
			fl := milr.NewFleet(rt)
			weights := []float64{1, 2, 4}
			for i, n := range nets {
				if err := fl.Register(n.name, n.model, milr.WithModelWeight(weights[i])); err != nil {
					t.Fatal(err)
				}
			}
			// K = 3 models × perModel clients, all concurrent.
			var wg sync.WaitGroup
			got := make([][]int, len(nets))
			errs := make([][]error, len(nets))
			for mi := range nets {
				got[mi] = make([]int, perModel)
				errs[mi] = make([]error, perModel)
				for c := 0; c < perModel; c++ {
					mi, c := mi, c
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[mi][c], errs[mi][c] = fl.Predict(context.Background(), nets[mi].name, nets[mi].xs[c])
					}()
				}
			}
			wg.Wait()
			for mi, n := range nets {
				for c := 0; c < perModel; c++ {
					if errs[mi][c] != nil {
						t.Fatalf("%s client %d: %v", n.name, c, errs[mi][c])
					}
					if got[mi][c] != n.want[c] {
						t.Fatalf("%s client %d: routed answer %d, direct answer %d", n.name, c, got[mi][c], n.want[c])
					}
				}
			}
			// PredictBatch through the router vs the model's own batched
			// GEMM path.
			for _, n := range nets {
				direct, err := n.model.PredictBatch(n.xs)
				if err != nil {
					t.Fatal(err)
				}
				routed, err := fl.PredictBatch(context.Background(), n.name, n.xs)
				if err != nil {
					t.Fatal(err)
				}
				for i := range direct {
					if routed[i] != direct[i] {
						t.Fatalf("%s batch sample %d: routed %d, direct PredictBatch %d", n.name, i, routed[i], direct[i])
					}
				}
			}
			if err := fl.Close(); err != nil {
				t.Fatal(err)
			}
			st := fl.Stats()
			wantServed := int64(len(nets) * perModel * 2)
			if st.Served != wantServed || st.Admitted != wantServed {
				t.Fatalf("served/admitted = %d/%d, want %d (stats %+v)", st.Served, st.Admitted, wantServed, st)
			}
			for _, n := range nets {
				ms := st.Models[n.name]
				if ms.Served != perModel*2 {
					t.Fatalf("%s served %d, want %d", n.name, ms.Served, perModel*2)
				}
				var histTotal int64
				for _, k := range ms.BatchFill {
					histTotal += k
				}
				if histTotal != ms.Batches {
					t.Fatalf("%s batch-fill histogram %v sums to %d, want %d batches", n.name, ms.BatchFill, histTotal, ms.Batches)
				}
				if ms.MeanBatchFill <= 1 {
					t.Logf("%s: mean batch fill %.2f (no coalescing this run)", n.name, ms.MeanBatchFill)
				}
			}
		})
	}
}

// TestFleetQueueCapOverload pins the façade's admission-control story
// deterministically: with one model's engine lock held (a self-heal in
// progress), its queue fills to WithQueueCap and further open-loop
// requests fast-fail with a typed ErrQueueFull naming the model and
// cap — while a second model keeps serving — a request relying on
// WithDefaultDeadline expires instead of waiting unboundedly, and Close
// still drains everything admitted.
func TestFleetQueueCapOverload(t *testing.T) {
	ctx := context.Background()
	hot := buildFleetNet(t, "hot", milr.NewTinyNet, 7, 8)
	cold := buildFleetNet(t, "cold", milr.NewTinyNet, 8, 4)
	rt := milr.NewRuntime(
		milr.WithSeed(7),
		milr.WithWorkers(2),
		milr.WithBatchSize(1),
		milr.WithMaxBatchDelay(0),
		milr.WithQueueCap(2),
		milr.WithDefaultDeadline(30*time.Millisecond),
	)
	prot, err := rt.Protect(ctx, hot.model)
	if err != nil {
		t.Fatal(err)
	}
	fl := milr.NewFleet(rt)
	if err := fl.RegisterProtected("hot", prot, milr.WithModelWeight(1)); err != nil {
		t.Fatal(err)
	}
	if err := fl.Register("cold", cold.model, milr.WithModelQueueCap(-1)); err != nil {
		t.Fatal(err)
	}
	// Requests that must be served carry their own long deadline, so
	// the runtime's default deadline leaves them alone.
	longCtx, cancelLong := context.WithTimeout(ctx, 5*time.Second)
	defer cancelLong()

	// Hold the hot model's engine lock: its batches park at the Sync
	// gate exactly as during a long self-heal.
	lockHeld := make(chan struct{})
	releaseLock := make(chan struct{})
	go prot.Sync(func() {
		close(lockHeld)
		<-releaseLock
	})
	<-lockHeld

	var wg sync.WaitGroup
	admitted := make([]error, 2) // 1 in the parked batch + 1 queued
	predictHot := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, admitted[i] = fl.Predict(longCtx, "hot", hot.xs[i])
		}()
	}
	// Request 0 first, alone: once it is admitted and its queue slot
	// drained (Queued back to 0), it is parked in the executor at the
	// Sync gate and the cap applies cleanly to the next arrivals.
	predictHot(0)
	waitFleet(t, fl, func(s milr.FleetStats) bool {
		m := s.Models["hot"]
		return m.Admitted >= 1 && m.Queued == 0
	})

	// A caller without its own deadline inherits WithDefaultDeadline:
	// it is admitted (the queue is below cap) but expires instead of
	// waiting out the self-heal pause. Its dead entry keeps the queue
	// slot until flush time, exactly like a caller-cancelled request.
	expired := make(chan error, 1)
	go func() {
		_, err := fl.Predict(ctx, "hot", hot.xs[7])
		expired <- err
	}()
	select {
	case err := <-expired:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline-less request during pause: %v, want DeadlineExceeded", err)
		}
	case <-time.After(2 * time.Second):
		close(releaseLock)
		t.Fatal("deadline-less request still waiting after 2s — default deadline not applied")
	}

	// Fill the remaining queue slot; the cap now applies to new
	// arrivals.
	predictHot(1)
	waitFleet(t, fl, func(s milr.FleetStats) bool { return s.Models["hot"].Queued == 2 })

	// Queue at cap: open-loop overload is shed in O(1), and every
	// rejection names the queue and the cap that refused it.
	for i := 2; i < 7; i++ {
		_, err := fl.Predict(ctx, "hot", hot.xs[i])
		if !errors.Is(err, milr.ErrQueueFull) {
			t.Fatalf("overload request %d: %v, want ErrQueueFull", i, err)
		}
		var qf *milr.QueueFullError
		if !errors.As(err, &qf) {
			t.Fatalf("rejection %v is not a *QueueFullError", err)
		}
		if qf.Cap != 2 || qf.Model != "hot" {
			t.Fatalf("rejection detail = %+v, want Cap=2 and Model=hot", qf)
		}
	}

	// The cold model is completely unaffected by the hot model's pause
	// and full queue.
	for i, x := range cold.xs {
		got, err := fl.Predict(longCtx, "cold", x)
		if err != nil {
			t.Fatalf("cold model during hot overload: %v", err)
		}
		if got != cold.want[i] {
			t.Fatalf("cold model sample %d: routed %d, direct %d", i, got, cold.want[i])
		}
	}

	// Release the engine lock; drain-on-close must serve both admitted
	// hot requests — and drop the expired one — without deadlocking.
	close(releaseLock)
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range admitted {
		if err != nil {
			t.Fatalf("admitted hot request %d not drained: %v", i, err)
		}
	}
	st := fl.Stats()
	if st.Rejected != 5 || st.Models["hot"].Rejected != 5 {
		t.Fatalf("rejected = %d (hot %d), want 5", st.Rejected, st.Models["hot"].Rejected)
	}
	if hs := st.Models["hot"]; hs.Served != 2 || hs.Cancelled != 1 {
		t.Fatalf("hot served/cancelled = %d/%d, want 2/1", hs.Served, hs.Cancelled)
	}
	if st.Models["cold"].Rejected != 0 {
		t.Fatalf("cold model saw %d rejections", st.Models["cold"].Rejected)
	}
	if _, err := fl.Predict(ctx, "hot", hot.xs[0]); !errors.Is(err, milr.ErrFleetClosed) {
		t.Fatalf("admission after Close: %v, want ErrFleetClosed", err)
	}
	if _, err := fl.PredictBatch(ctx, "hot", hot.xs[:2]); !errors.Is(err, milr.ErrFleetClosed) {
		t.Fatalf("batch admission after Close: %v, want ErrFleetClosed", err)
	}
}

func waitFleet(t *testing.T, fl *milr.Fleet, ok func(milr.FleetStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok(fl.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting on fleet stats (stats %+v)", fl.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestFleetGuardedSoak is the PR 3 guarded soak, fleet-shaped, run
// under the race detector in CI: two protected models serve concurrent
// client crowds while a fault injector corrupts both through their
// Sync gates and the fleet guard round-robins self-heal scrubs across
// them. Every request must be answered (possibly degraded mid-burst,
// never an error), and after a final per-model self-heal the routed
// answers must match the clean ones again.
func TestFleetGuardedSoak(t *testing.T) {
	const clients, perClient = 6, 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nets := []fleetNet{
		buildFleetNet(t, "a", milr.NewTinyNet, 21, clients),
		buildFleetNet(t, "b", milr.NewTinyNet, 22, clients),
	}
	rt := milr.NewRuntime(
		milr.WithSeed(42),
		milr.WithWorkers(2),
		milr.WithBatchSize(4),
		milr.WithMaxBatchDelay(time.Millisecond),
	)
	prots := make([]*milr.Protector, len(nets))
	fl := milr.NewFleet(rt)
	for i, n := range nets {
		var err error
		prots[i], err = rt.Protect(ctx, n.model)
		if err != nil {
			t.Fatal(err)
		}
		if err := fl.RegisterProtected(n.name, prots[i], milr.WithModelWeight(float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := fl.StartGuard(ctx, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Fault injectors: whole-weight corruption through each model's
	// Sync gate, racing the guard's scrubs and the router's batches.
	injDone := make(chan struct{})
	go func() {
		defer close(injDone)
		inj := faults.New(77)
		for i := 0; i < 15; i++ {
			select {
			case <-ctx.Done():
				return
			default:
			}
			for mi, n := range nets {
				mi, n := mi, n
				prots[mi].Sync(func() { inj.WholeWeights(n.model, 0.001) })
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, len(nets)*clients*perClient)
	for _, n := range nets {
		n := n
		for c := 0; c < clients; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < perClient; r++ {
					if _, err := fl.Predict(ctx, n.name, n.xs[c]); err != nil {
						errCh <- fmt.Errorf("model %s client %d request %d: %w", n.name, c, r, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	<-injDone
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Heal whatever the last burst left behind, then every model must
	// answer bit-identically to its clean baseline again.
	for mi, n := range nets {
		if _, _, err := prots[mi].SelfHealContext(ctx); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < clients; c++ {
			got, err := fl.Predict(ctx, n.name, n.xs[c])
			if err != nil {
				t.Fatal(err)
			}
			if got != n.want[c] {
				t.Fatalf("model %s client %d after heal: routed %d, clean answer %d", n.name, c, got, n.want[c])
			}
		}
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	st := fl.Stats()
	wantServed := int64(len(nets) * (clients*perClient + clients))
	if st.Served != wantServed {
		t.Fatalf("served %d, want %d", st.Served, wantServed)
	}
	totalScrubs := st.Models["a"].Scrubs + st.Models["b"].Scrubs
	if totalScrubs == 0 {
		t.Fatal("fleet guard never scrubbed")
	}
	t.Logf("soak: %d requests, models a/b scrubs %d/%d, a fill %.2f b fill %.2f",
		st.Served, st.Models["a"].Scrubs, st.Models["b"].Scrubs,
		st.Models["a"].MeanBatchFill, st.Models["b"].MeanBatchFill)
}

// TestFleetRollingSwapProtected drives the elasticity surface through
// the façade: a MILR-protected model is replaced by a freshly protected
// engine with identical weights while clients hammer it (zero errors,
// bit-identical answers), then unregistered — after which admission
// 404s, the guard has nothing left to scrub, and the fleet-wide
// aggregates have forgotten nothing.
func TestFleetRollingSwapProtected(t *testing.T) {
	ctx := context.Background()
	net := buildFleetNet(t, "m", milr.NewTinyNet, 31, 8)
	rt := milr.NewRuntime(
		milr.WithSeed(7),
		milr.WithWorkers(2),
		milr.WithBatchSize(2),
		milr.WithMaxBatchDelay(time.Millisecond),
	)
	fl := milr.NewFleet(rt)
	defer fl.Close()
	prOld, err := rt.Protect(ctx, net.model)
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.RegisterProtected("m", prOld); err != nil {
		t.Fatal(err)
	}
	// The replacement: a distinct engine instance with bit-identical
	// weights, protected by its own Protector.
	mNew, err := milr.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	mNew.InitWeights(31)
	prNew, err := rt.Protect(ctx, mNew)
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 4, 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients*perClient)
	started := make(chan struct{}, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				got, err := fl.Predict(ctx, "m", net.xs[(c+r)%len(net.xs)])
				if err != nil {
					errCh <- fmt.Errorf("client %d request %d: %w", c, r, err)
					return
				}
				if got != net.want[(c+r)%len(net.xs)] {
					errCh <- fmt.Errorf("client %d request %d: routed %d, want %d", c, r, got, net.want[(c+r)%len(net.xs)])
					return
				}
				if r == 0 {
					started <- struct{}{}
				}
			}
		}()
	}
	for c := 0; c < clients; c++ {
		<-started
	}
	if err := fl.ReplaceProtected(ctx, "m", prNew); err != nil {
		t.Fatalf("ReplaceProtected under traffic: %v", err)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// The swapped-in engine is scrubbed by the guard machinery.
	if name, _, err := fl.ScrubOnce(ctx); err != nil || name != "m" {
		t.Fatalf("ScrubOnce after swap: name=%q err=%v", name, err)
	}
	if err := fl.Unregister(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Predict(ctx, "m", net.xs[0]); !errors.Is(err, milr.ErrUnknownModel) {
		t.Fatalf("Predict after Unregister: got %v, want ErrUnknownModel", err)
	}
	if _, _, err := fl.ScrubOnce(ctx); err == nil {
		t.Fatal("ScrubOnce with no self-healing models left must fail")
	}
	st := fl.Stats()
	if st.Swaps != 1 || st.Unregistered != 1 {
		t.Fatalf("lifecycle counters: swaps=%d unregistered=%d, want 1/1", st.Swaps, st.Unregistered)
	}
	if want := int64(clients * perClient); st.Served != want {
		t.Fatalf("aggregates lost the unregistered model's history: served=%d, want %d", st.Served, want)
	}
	if len(st.Models) != 0 {
		t.Fatalf("unregistered model's series must be dropped, got %d entries", len(st.Models))
	}
}
