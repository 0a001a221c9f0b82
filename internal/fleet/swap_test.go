package fleet_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"milr/internal/fleet"
	"milr/internal/nn"
)

// sameWeightsTiny builds a second TinyNet with bit-identical weights to
// tinyModel(seed, ...): the rolling-upgrade case where the replacement
// engine must be indistinguishable, so a swap mid-traffic can be checked
// for bit-identical answers.
func sameWeightsTiny(t *testing.T, seed uint64) *nn.Model {
	t.Helper()
	m, err := nn.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(seed)
	return m
}

// TestReplaceUnderTrafficNoDrops hammers one model with 16 concurrent
// clients and fires Replace mid-flight: every request — admitted before,
// during, or after the cutover — must get an answer, with zero errors,
// bit-identical to the unswapped sequential reference (the replacement
// engine carries identical weights). Exercised at both worker budgets
// the batch arbiter behaves differently under.
func TestReplaceUnderTrafficNoDrops(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(map[int]string{1: "workers=1", 4: "workers=4"}[workers], func(t *testing.T) {
			mOld, xs, want := tinyModel(t, 7, 32)
			mNew := sameWeightsTiny(t, 7)
			f := fleet.New(fleet.Config{Workers: workers, BatchSize: 4, MaxDelay: 200 * time.Microsecond})
			if err := f.Register("m", mOld, fleet.ModelConfig{}); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			const clients, perClient = 16, 8
			total := clients * perClient
			type result struct {
				idx   int
				class int
				err   error
			}
			results := make(chan result, total)
			for c := 0; c < clients; c++ {
				c := c
				go func() {
					for j := 0; j < perClient; j++ {
						gi := c*perClient + j
						class, err := f.Predict(ctx, "m", xs[gi%len(xs)])
						results <- result{gi, class, err}
					}
				}()
			}
			// Let real traffic overlap the swap: cut over only after some
			// answers are back, while most requests are still in flight.
			got := make([]result, 0, total)
			for len(got) < total/4 {
				got = append(got, <-results)
			}
			if err := f.Replace(ctx, "m", mNew, fleet.ModelConfig{}); err != nil {
				t.Fatalf("replace under traffic: %v", err)
			}
			for len(got) < total {
				got = append(got, <-results)
			}
			for _, r := range got {
				if r.err != nil {
					t.Fatalf("request %d dropped across the swap: %v", r.idx, r.err)
				}
				if r.class != want[r.idx%len(xs)] {
					t.Fatalf("request %d: got class %d, sequential reference %d", r.idx, r.class, want[r.idx%len(xs)])
				}
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			st := f.Stats()
			if st.Swaps != 1 || st.Served != int64(total) || st.Admitted != int64(total) || st.Rejected != 0 {
				t.Fatalf("lifecycle counters: swaps=%d served=%d admitted=%d rejected=%d, want 1/%d/%d/0",
					st.Swaps, st.Served, st.Admitted, st.Rejected, total, total)
			}
		})
	}
}

// TestReplaceSwitchesEngine pins the functional half of the cutover:
// once Replace returns and the queue has quiesced, answers come from the
// new engine's weights, not the old's.
func TestReplaceSwitchesEngine(t *testing.T) {
	mOld, _, _ := tinyModel(t, 1, 1)
	mNew, xs, wantNew := tinyModel(t, 2, 16)
	// The fixture must discriminate the two engines, or the assertion
	// below would pass vacuously against either.
	distinct := false
	for i, x := range xs {
		old, err := mOld.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if old != wantNew[i] {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Fatal("fixture models agree on every probe input — pick different seeds")
	}
	f := fleet.New(fleet.Config{Workers: 1, BatchSize: 4})
	defer f.Close()
	if err := f.Register("m", mOld, fleet.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Replace(ctx, "m", mNew, fleet.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	got, err := f.PredictBatch(ctx, "m", xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != wantNew[i] {
			t.Fatalf("post-swap request %d: got %d, new engine predicts %d", i, got[i], wantNew[i])
		}
	}
}

// TestUnregisterDrainsQueue parks the model's first batch behind a gate
// brake, queues more traffic behind it, and unregisters: Unregister must
// block until the whole queue has drained through the engine, and every
// already-admitted request must get its correct answer.
func TestUnregisterDrainsQueue(t *testing.T) {
	m, xs, want := tinyModel(t, 3, 6)
	br := newBrake()
	f := fleet.New(fleet.Config{Workers: 1, BatchSize: 2})
	defer f.Close()
	if err := f.Register("a", m, fleet.ModelConfig{Gate: br.gate}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	got := make([]int, len(xs))
	errs := make([]error, len(xs))
	var wg sync.WaitGroup
	for i := range xs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = f.Predict(ctx, "a", xs[i])
		}()
	}
	<-br.entered // first batch is parked inside the gate
	waitStat(t, f, "admitted", func(st fleet.Stats) int64 { return st.Admitted }, int64(len(xs)))
	uerr := make(chan error, 1)
	go func() { uerr <- f.Unregister(ctx, "a") }()
	select {
	case err := <-uerr:
		t.Fatalf("Unregister returned %v with the queue still full — it must block for the drain", err)
	case <-time.After(30 * time.Millisecond):
	}
	// Admission is already cut off even though the drain is running.
	if _, err := f.Predict(ctx, "a", xs[0]); !errors.Is(err, fleet.ErrUnknownModel) {
		t.Fatalf("Predict during drain: got %v, want ErrUnknownModel", err)
	}
	br.release <- struct{}{} // release the parked batch, then every follower
	deadline := time.After(5 * time.Second)
	for done := false; !done; {
		select {
		case err := <-uerr:
			if err != nil {
				t.Fatalf("Unregister: %v", err)
			}
			done = true
		case <-br.entered:
			br.release <- struct{}{}
		case <-deadline:
			t.Fatal("Unregister never returned after the queue drained")
		}
	}
	wg.Wait()
	for i := range xs {
		if errs[i] != nil {
			t.Fatalf("request %d dropped by the drain: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("request %d: got %d, want %d", i, got[i], want[i])
		}
	}
	if n := len(f.Models()); n != 0 {
		t.Fatalf("Models() still lists %d models after Unregister", n)
	}
	st := f.Stats()
	if len(st.Models) != 0 || st.Served != int64(len(xs)) || st.Unregistered != 1 {
		t.Fatalf("post-drain stats: models=%d served=%d unregistered=%d", len(st.Models), st.Served, st.Unregistered)
	}
}

// TestUnregisterRejectsNewAdmissions covers the admission edge of the
// cutover: with one request executing and another filling the cap-1
// queue, a fresh caller gets ErrUnknownModel the moment Unregister
// starts, while both admitted requests still drain with their answers.
func TestUnregisterRejectsNewAdmissions(t *testing.T) {
	m, xs, want := tinyModel(t, 4, 4)
	br := newBrake()
	f := fleet.New(fleet.Config{Workers: 1, BatchSize: 1})
	defer f.Close()
	if err := f.Register("a", m, fleet.ModelConfig{QueueCap: 1, Gate: br.gate}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	type answer struct {
		class int
		err   error
	}
	res1, res2 := make(chan answer, 1), make(chan answer, 1)
	go func() { c, err := f.Predict(ctx, "a", xs[0]); res1 <- answer{c, err} }()
	<-br.entered // request 1 parked in the gate; the queue is empty again
	go func() { c, err := f.Predict(ctx, "a", xs[1]); res2 <- answer{c, err} }()
	waitQueued(t, f, "a", 1) // request 2 fills the cap-1 queue
	uerr := make(chan error, 1)
	go func() { uerr <- f.Unregister(ctx, "a") }()
	// Unregister blocks on the drain, so poll for the cutover itself.
	waitStat(t, f, "unregistered", func(s fleet.Stats) int64 { return s.Unregistered }, 1)
	if _, err := f.Predict(ctx, "a", xs[2]); !errors.Is(err, fleet.ErrUnknownModel) {
		t.Fatalf("fresh Predict after Unregister: got %v, want ErrUnknownModel", err)
	}
	br.release <- struct{}{} // request 1's batch
	deadline := time.After(5 * time.Second)
	for done := false; !done; {
		select {
		case err := <-uerr:
			if err != nil {
				t.Fatalf("Unregister: %v", err)
			}
			done = true
		case <-br.entered:
			br.release <- struct{}{}
		case <-deadline:
			t.Fatal("Unregister never returned")
		}
	}
	for i, ch := range []chan answer{res1, res2} {
		a := <-ch
		if a.err != nil || a.class != want[i] {
			t.Fatalf("admitted request %d: class=%d err=%v, want %d/nil", i, a.class, a.err, want[i])
		}
	}
}

// waitQueued polls until the named model's queue depth reaches n.
func waitQueued(t *testing.T, f *fleet.Fleet, model string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ms, ok := f.Stats().Models[model]; ok && ms.Queued >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s queue depth %d", model, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestUnregisterCtxDone pins the early-return contract: a context that
// expires mid-drain makes Unregister return ctx.Err() while the drain
// keeps running in the background — the admitted requests are still
// answered — and the name is immediately free for re-registration.
func TestUnregisterCtxDone(t *testing.T) {
	m, xs, want := tinyModel(t, 5, 3)
	br := newBrake()
	f := fleet.New(fleet.Config{Workers: 1, BatchSize: 1})
	defer f.Close()
	if err := f.Register("a", m, fleet.ModelConfig{Gate: br.gate}); err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(xs))
	errs := make([]error, len(xs))
	var wg sync.WaitGroup
	for i := range xs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = f.Predict(context.Background(), "a", xs[i])
		}()
	}
	<-br.entered
	waitStat(t, f, "admitted", func(st fleet.Stats) int64 { return st.Admitted }, int64(len(xs)))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := f.Unregister(ctx, "a"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Unregister with expiring ctx: got %v, want DeadlineExceeded", err)
	}
	// The name is free while the old backend drains in the background.
	m2 := sameWeightsTiny(t, 5)
	if err := f.Register("a", m2, fleet.ModelConfig{}); err != nil {
		t.Fatalf("re-Register during background drain: %v", err)
	}
	go func() {
		for range br.entered {
			br.release <- struct{}{}
		}
	}()
	br.release <- struct{}{}
	wg.Wait()
	for i := range xs {
		if errs[i] != nil || got[i] != want[i] {
			t.Fatalf("drained request %d: class=%d err=%v, want %d/nil", i, got[i], errs[i], want[i])
		}
	}
	// The re-registered engine serves immediately.
	if class, err := f.Predict(context.Background(), "a", xs[0]); err != nil || class != want[0] {
		t.Fatalf("re-registered model: class=%d err=%v, want %d/nil", class, err, want[0])
	}
}

// TestScrubCursorSurvivesUnregister walks the guard's shared round-robin
// cursor across an Unregister that lands mid-rotation: the rotation must
// neither panic nor starve the survivors, and the vanished model is
// never scrubbed again. The cursor schedule is deterministic, so the
// exact post-removal sequence is pinned.
func TestScrubCursorSurvivesUnregister(t *testing.T) {
	f := fleet.New(fleet.Config{Workers: 1})
	defer f.Close()
	noop := func(context.Context) (fleet.ScrubResult, error) { return fleet.ScrubResult{}, nil }
	for _, name := range []string{"a", "b", "c"} {
		m := sameWeightsTiny(t, 6)
		if err := f.Register(name, m, fleet.ModelConfig{Scrub: noop}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	var visited []string
	scrub := func() {
		t.Helper()
		name, _, err := f.ScrubOnce(ctx)
		if err != nil {
			t.Fatalf("ScrubOnce: %v", err)
		}
		visited = append(visited, name)
	}
	scrub() // a
	scrub() // b — cursor now mid-rotation, c would be next
	if err := f.Unregister(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		scrub()
	}
	// Cursor index keeps advancing over the shrunken set [a c]:
	// idx 2→a, 3→c, 4→a, 5→c.
	want := []string{"a", "b", "a", "c", "a", "c"}
	if len(visited) != len(want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("rotation diverged at step %d: visited %v, want %v", i, visited, want)
		}
	}
}

// TestModelsOrderAfterUnregisterRegister pins the deterministic
// registration-order contract /v1/models and trace replay rely on:
// unregistering and re-registering a name moves it to the end.
func TestModelsOrderAfterUnregisterRegister(t *testing.T) {
	f := fleet.New(fleet.Config{})
	defer f.Close()
	ctx := context.Background()
	for _, name := range []string{"a", "b", "c"} {
		if err := f.Register(name, sameWeightsTiny(t, 8), fleet.ModelConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Unregister(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if err := f.Register("b", sameWeightsTiny(t, 8), fleet.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "c", "b"}
	infos := f.Models()
	if len(infos) != len(want) {
		t.Fatalf("Models() has %d entries, want %d", len(infos), len(want))
	}
	for i, info := range infos {
		if info.Name != want[i] {
			got := make([]string, len(infos))
			for j := range infos {
				got[j] = infos[j].Name
			}
			t.Fatalf("registration order %v, want %v", got, want)
		}
	}
}

// TestStatsLifecycleAcrossSwaps pins the metrics-lifecycle contract:
// an unregistered model's per-model series are dropped immediately, a
// replaced model keeps its series, and the fleet-wide aggregates are
// monotonic across the whole register→serve→unregister→re-register
// churn — they fold in the retired totals rather than forgetting them.
func TestStatsLifecycleAcrossSwaps(t *testing.T) {
	mA, xsA, _ := tinyModel(t, 1, 8)
	mB, xsB, _ := tinyModel(t, 2, 8)
	f := fleet.New(fleet.Config{Workers: 2, BatchSize: 2})
	defer f.Close()
	ctx := context.Background()
	if err := f.Register("a", mA, fleet.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Register("b", mB, fleet.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.PredictBatch(ctx, "a", xsA); err != nil {
		t.Fatal(err)
	}
	if _, err := f.PredictBatch(ctx, "b", xsB); err != nil {
		t.Fatal(err)
	}
	st1 := f.Stats()
	if st1.Served != 16 || len(st1.Models) != 2 {
		t.Fatalf("baseline stats: served=%d models=%d", st1.Served, len(st1.Models))
	}
	if err := f.Unregister(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	st2 := f.Stats()
	if _, still := st2.Models["a"]; still {
		t.Fatal("unregistered model's series must be dropped from Stats().Models")
	}
	if st2.Served != st1.Served || st2.Admitted != st1.Admitted {
		t.Fatalf("aggregates moved backwards across Unregister: served %d→%d admitted %d→%d",
			st1.Served, st2.Served, st1.Admitted, st2.Admitted)
	}
	if st2.Unregistered != 1 || st2.Swaps != 0 {
		t.Fatalf("lifecycle counters: unregistered=%d swaps=%d, want 1/0", st2.Unregistered, st2.Swaps)
	}
	if _, err := f.PredictBatch(ctx, "b", xsB[:4]); err != nil {
		t.Fatal(err)
	}
	if err := f.Replace(ctx, "b", sameWeightsTiny(t, 2), fleet.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	st3 := f.Stats()
	if st3.Swaps != 1 {
		t.Fatalf("swaps=%d after Replace, want 1", st3.Swaps)
	}
	// Replace keeps the model's series: its counters continue, not reset.
	if got := st3.Models["b"].Served; got != 12 {
		t.Fatalf("replaced model's series reset: served=%d, want 12", got)
	}
	if err := f.Register("a", sameWeightsTiny(t, 1), fleet.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.PredictBatch(ctx, "a", xsA[:4]); err != nil {
		t.Fatal(err)
	}
	if err := f.Unregister(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	st4 := f.Stats()
	if st4.Served != 24 || st4.Admitted != 24 || st4.Unregistered != 2 {
		t.Fatalf("final aggregates: served=%d admitted=%d unregistered=%d, want 24/24/2",
			st4.Served, st4.Admitted, st4.Unregistered)
	}
}

// TestSwapErrors pins the error surface of the elasticity API.
func TestSwapErrors(t *testing.T) {
	m, _, _ := tinyModel(t, 9, 1)
	f := fleet.New(fleet.Config{})
	if err := f.Register("a", m, fleet.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Unregister(ctx, "ghost"); !errors.Is(err, fleet.ErrUnknownModel) {
		t.Fatalf("Unregister unknown: got %v, want ErrUnknownModel", err)
	}
	if err := f.Replace(ctx, "ghost", sameWeightsTiny(t, 9), fleet.ModelConfig{}); !errors.Is(err, fleet.ErrUnknownModel) {
		t.Fatalf("Replace unknown: got %v, want ErrUnknownModel", err)
	}
	if err := f.Replace(ctx, "a", nil, fleet.ModelConfig{}); err == nil {
		t.Fatal("Replace with nil model must fail")
	}
	partial, err := nn.NewTinyPartialNet()
	if err != nil {
		t.Fatal(err)
	}
	partial.InitWeights(9)
	if err := f.Replace(ctx, "a", partial, fleet.ModelConfig{}); err == nil || errors.Is(err, fleet.ErrUnknownModel) {
		t.Fatalf("Replace with mismatched input shape must fail with a shape error, got %v", err)
	}
	// The rejection must not have torn the registration: a well-shaped
	// replacement still succeeds.
	if err := f.Replace(ctx, "a", sameWeightsTiny(t, 9), fleet.ModelConfig{}); err != nil {
		t.Fatalf("Replace after rejected swap: %v", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := f.Replace(cancelled, "a", sameWeightsTiny(t, 9), fleet.ModelConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Replace with cancelled ctx: got %v, want Canceled", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Unregister(ctx, "a"); !errors.Is(err, fleet.ErrClosed) {
		t.Fatalf("Unregister after Close: got %v, want ErrClosed", err)
	}
	if err := f.Replace(ctx, "a", sameWeightsTiny(t, 9), fleet.ModelConfig{}); !errors.Is(err, fleet.ErrClosed) {
		t.Fatalf("Replace after Close: got %v, want ErrClosed", err)
	}
}

// TestReplaceVsGuardScrubRace runs the wall-clock guard, live traffic,
// ScrubOnce callers and a Replace loop concurrently: the guard's cursor
// and each scrub cycle must stay attached to a coherent engine snapshot
// while Replace swaps the hooks underneath them (-race is the judge).
func TestReplaceVsGuardScrubRace(t *testing.T) {
	mA, xs, want := tinyModel(t, 11, 8)
	noop := func(context.Context) (fleet.ScrubResult, error) { return fleet.ScrubResult{}, nil }
	f := fleet.New(fleet.Config{Workers: 2, BatchSize: 2, MaxDelay: 100 * time.Microsecond})
	if err := f.Register("m", mA, fleet.ModelConfig{Scrub: noop}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := f.StartGuard(ctx, 200*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 256)
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				idx := (g + i) % len(xs)
				class, err := f.Predict(ctx, "m", xs[idx])
				if err != nil {
					errCh <- err
					return
				}
				if class != want[idx] {
					errCh <- errors.New("answer diverged from reference during swap churn")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := f.Replace(ctx, "m", sameWeightsTiny(t, 11), fleet.ModelConfig{Scrub: noop}); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, _, err := f.ScrubOnce(ctx); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("swap/scrub churn: %v", err)
	}
	cancel()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Swaps != 40 {
		t.Fatalf("swaps=%d, want 40", st.Swaps)
	}
}

// TestSwapStormRace is the torture drill: predictors hammer three model
// names while mutators register, unregister and replace those names and
// one goroutine closes the fleet mid-storm. Every answered request must
// be correct; every error must be one of the lifecycle sentinels. The
// race detector owns the rest.
func TestSwapStormRace(t *testing.T) {
	_, xs, want := tinyModel(t, 13, 8)
	names := []string{"s0", "s1", "s2"}
	f := fleet.New(fleet.Config{Workers: 4, BatchSize: 2, MaxDelay: 100 * time.Microsecond})
	for _, name := range names {
		if err := f.Register(name, sameWeightsTiny(t, 13), fleet.ModelConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	tolerated := func(err error) bool {
		return err == nil || errors.Is(err, fleet.ErrUnknownModel) || errors.Is(err, fleet.ErrClosed)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 1024)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				idx := (g + i) % len(xs)
				class, err := f.Predict(ctx, names[(g+i)%len(names)], xs[idx])
				if !tolerated(err) {
					errCh <- err
					return
				}
				if err == nil && class != want[idx] {
					errCh <- errors.New("storm answer diverged from reference")
					return
				}
			}
		}()
	}
	for g := 0; g < 3; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 90; i++ {
				name := names[(g+i)%len(names)]
				switch (g + i) % 3 {
				case 0:
					// Duplicate-name and closed-fleet rejections are part
					// of the storm, not failures.
					_ = f.Register(name, sameWeightsTiny(t, 13), fleet.ModelConfig{})
				case 1:
					if err := f.Unregister(ctx, name); !tolerated(err) {
						errCh <- err
						return
					}
				case 2:
					if err := f.Replace(ctx, name, sameWeightsTiny(t, 13), fleet.ModelConfig{}); !tolerated(err) {
						errCh <- err
						return
					}
				}
				if g == 0 && i == 60 {
					if err := f.Close(); err != nil {
						errCh <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("swap storm: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
