package fleet_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"milr/internal/fleet"
	"milr/internal/serve"
)

// Regression tests for the admission/shutdown contracts the HTTP
// gateway maps onto status codes: typed queue-full rejections (429 with
// model and cap in the body), the unknown-model sentinel (404), the
// model index it validates payload shapes against, and Close
// idempotency under a signal handler racing a deferred Close.

// TestFleetQueueFullErrorTyped pins the fleet surface's rejection
// shape: errors.Is must match the shared sentinel and errors.As must
// recover which model refused the request at what cap. Before
// QueueFullError existed both serving surfaces wrapped the sentinel in
// structurally different fmt.Errorf strings, so the As half of this
// test fails on the pre-fix code.
func TestFleetQueueFullErrorTyped(t *testing.T) {
	m, xs, _ := tinyModel(t, 1, 3)
	br := newBrake()
	f := fleet.New(fleet.Config{Workers: 1, BatchSize: 1})
	if err := f.Register("tiny", m, fleet.ModelConfig{QueueCap: 1, Gate: br.gate}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	send := func(i int) {
		defer wg.Done()
		if _, err := f.Predict(ctx, "tiny", xs[i]); err != nil {
			t.Errorf("admitted predict %d failed: %v", i, err)
		}
	}
	// Request 0 parks inside the gate (entered implies the dispatcher
	// already drained it from the queue), request 1 then occupies the
	// queue's single slot; request 2 must be refused. Admissions are
	// sequenced so the cap rejection is deterministic.
	wg.Add(1)
	go send(0)
	<-br.entered
	wg.Add(1)
	go send(1)
	waitStat(t, f, "admitted", func(st fleet.Stats) int64 { return st.Admitted }, 2)
	_, err := f.Predict(ctx, "tiny", xs[2])
	if err == nil {
		t.Fatal("predict into a full model queue succeeded, want rejection")
	}
	if !errors.Is(err, fleet.ErrQueueFull) {
		t.Errorf("rejection %v is not errors.Is-matchable against ErrQueueFull", err)
	}
	var qf *serve.QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("rejection %v is not a *QueueFullError", err)
	}
	if qf.Model != "tiny" || qf.Cap != 1 {
		t.Errorf("rejection detail = %+v, want Model=tiny Cap=1", qf)
	}
	// PredictBatch rejections carry the same typed error, so the gateway
	// maps the batch route with the same errors.As.
	if _, err := f.PredictBatch(ctx, "tiny", xs[2:3]); !errors.As(err, &qf) {
		t.Errorf("PredictBatch rejection %v is not a *QueueFullError", err)
	}
	if st := f.Stats(); st.Rejected != 2 {
		t.Errorf("Rejected = %d, want 2", st.Rejected)
	}
	br.release <- struct{}{}
	br.release <- struct{}{}
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetUnknownModelSentinel pins the 404 mapping: routing to a
// never-registered model must be errors.Is-matchable against
// ErrUnknownModel on both predict surfaces, without string matching.
func TestFleetUnknownModelSentinel(t *testing.T) {
	m, xs, _ := tinyModel(t, 1, 1)
	f := fleet.New(fleet.Config{Workers: 1, BatchSize: 1})
	defer f.Close()
	if err := f.Register("tiny", m, fleet.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := f.Predict(ctx, "nope", xs[0]); !errors.Is(err, fleet.ErrUnknownModel) {
		t.Errorf("Predict(unknown) = %v, want ErrUnknownModel", err)
	}
	if _, err := f.PredictBatch(ctx, "nope", xs); !errors.Is(err, fleet.ErrUnknownModel) {
		t.Errorf("PredictBatch(unknown) = %v, want ErrUnknownModel", err)
	}
}

// TestFleetModels pins the model index: registration order, input
// shapes, resolved queue caps (model override beats fleet default),
// weights, and the Guarded flag tracking the Scrub hook.
func TestFleetModels(t *testing.T) {
	mA, _, _ := tinyModel(t, 1, 1)
	mB, _, _ := tinyModel(t, 2, 1)
	f := fleet.New(fleet.Config{Workers: 1, BatchSize: 2, QueueCap: 8})
	defer f.Close()
	if err := f.Register("a", mA, fleet.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	scrub := func(context.Context) (fleet.ScrubResult, error) { return fleet.ScrubResult{Recovered: true}, nil }
	if err := f.Register("b", mB, fleet.ModelConfig{Weight: 3, QueueCap: 2, Scrub: scrub}); err != nil {
		t.Fatal(err)
	}
	infos := f.Models()
	if len(infos) != 2 {
		t.Fatalf("Models() returned %d entries, want 2", len(infos))
	}
	a, b := infos[0], infos[1]
	if a.Name != "a" || b.Name != "b" {
		t.Errorf("Models() order = [%s %s], want registration order [a b]", a.Name, b.Name)
	}
	if !a.InShape.Equal(mA.InShape()) {
		t.Errorf("model a InShape = %v, want %v", a.InShape, mA.InShape())
	}
	if a.Weight != 1 || a.QueueCap != 8 || a.Guarded {
		t.Errorf("model a = %+v, want Weight=1 QueueCap=8 (fleet default) Guarded=false", a)
	}
	if b.Weight != 3 || b.QueueCap != 2 || !b.Guarded {
		t.Errorf("model b = %+v, want Weight=3 QueueCap=2 (override) Guarded=true", b)
	}
}

// TestFleetCloseIdempotentConcurrent is the double-Close race
// regression: a signal handler's Close racing a deferred Close, a
// running guard, and a swarm of in-flight Predicts must drain exactly
// once, return the first call's result from every call, and refuse
// admissions arriving after the close — all race-detector clean.
func TestFleetCloseIdempotentConcurrent(t *testing.T) {
	m, xs, want := tinyModel(t, 1, 16)
	f := fleet.New(fleet.Config{Workers: 2, BatchSize: 4, MaxDelay: time.Millisecond})
	scrub := func(ctx context.Context) (fleet.ScrubResult, error) { return fleet.ScrubResult{Recovered: true}, nil }
	if err := f.Register("tiny", m, fleet.ModelConfig{Scrub: scrub}); err != nil {
		t.Fatal(err)
	}
	if err := f.StartGuard(context.Background(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := range xs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := f.Predict(ctx, "tiny", xs[i])
			switch {
			case errors.Is(err, fleet.ErrClosed):
				// Raced the close and lost admission — the documented
				// outcome for requests arriving after shutdown began.
			case err != nil:
				t.Errorf("predict %d: %v", i, err)
			case got != want[i]:
				t.Errorf("predict %d: served %d, direct %d (admitted requests must be drained, not dropped)", i, got, want[i])
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Errorf("Close after shutdown: %v", err)
	}
	if _, err := f.Predict(ctx, "tiny", xs[0]); !errors.Is(err, fleet.ErrClosed) {
		t.Errorf("predict after close returned %v, want ErrClosed", err)
	}
}
