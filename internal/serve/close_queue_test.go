package serve_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"milr/internal/fleet"
	"milr/internal/serve"
)

// Regression tests for the three admission/shutdown contracts the HTTP
// gateway leans on: typed queue-full rejections (429 mapping), Close
// idempotency under the signal-handler-plus-defer double call, and the
// zero-traffic stats contract (/metrics scrapes idle servers
// constantly).

// TestQueueFullErrorTyped pins the admission-rejection error shape on
// a single-model queue: errors.Is must match the sentinel and errors.As
// must recover the model and cap. Before the QueueFullError type
// existed the rejection was an opaque fmt.Errorf wrap, so the As half
// of this test fails on the pre-fix code.
func TestQueueFullErrorTyped(t *testing.T) {
	m, xs, _ := tinyModel(t, 3)
	br := newBrake()
	s, err := newServer(m, fleet.Config{BatchSize: 1, QueueCap: 1}, br.gate)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	send := func(i int) {
		defer wg.Done()
		if _, err := s.Predict(ctx, xs[i]); err != nil {
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
	waitAdmitted(t, s, 2)
	_, err = s.Predict(ctx, xs[2])
	if err == nil {
		t.Fatal("predict into a full queue succeeded, want rejection")
	}
	if !errors.Is(err, serve.ErrQueueFull) {
		t.Errorf("rejection %v is not errors.Is-matchable against ErrQueueFull", err)
	}
	var qf *serve.QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("rejection %v is not a *QueueFullError", err)
	}
	if qf.Model != model || qf.Cap != 1 {
		t.Errorf("rejection detail = %+v, want Model=%s Cap=1", qf, model)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
	br.release <- struct{}{}
	br.release <- struct{}{}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerCloseIdempotentConcurrent is the double-Close race
// regression: a signal handler's Close racing a deferred Close (and a
// swarm of in-flight Predicts) must drain exactly once, return the
// first call's result from every call, and refuse admissions that
// arrive after the close — all race-detector clean.
func TestServerCloseIdempotentConcurrent(t *testing.T) {
	m, xs, want := tinyModel(t, 16)
	s, err := newServer(m, fleet.Config{BatchSize: 4, MaxDelay: time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := range xs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.Predict(ctx, xs[i])
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
			if err := s.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Errorf("Close after shutdown: %v", err)
	}
	if _, err := s.Predict(ctx, xs[0]); !errors.Is(err, fleet.ErrClosed) {
		t.Errorf("predict after close returned %v, want ErrClosed", err)
	}
}

// TestSnapshotZeroTraffic pins the zero-traffic stats contract a
// metrics scraper depends on: a snapshot taken before any request has
// been admitted (or any batch executed) reports finite zeros — never
// NaN, never a panic from the empty latency ring — and the batch-fill
// histogram already has its configured shape.
func TestSnapshotZeroTraffic(t *testing.T) {
	m, _, _ := tinyModel(t, 1)
	s, err := newServer(m, fleet.Config{BatchSize: 4, QueueCap: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()
	if st.Admitted != 0 || st.Served != 0 || st.Rejected != 0 || st.Batches != 0 || st.Queued != 0 || st.QueueDepth != 0 {
		t.Errorf("idle snapshot has non-zero counters: %+v", st)
	}
	if math.IsNaN(st.MeanBatchFill) || st.MeanBatchFill != 0 {
		t.Errorf("idle MeanBatchFill = %v, want exactly 0", st.MeanBatchFill)
	}
	if st.P50 != 0 || st.P99 != 0 {
		t.Errorf("idle quantiles P50=%v P99=%v, want 0/0", st.P50, st.P99)
	}
	if len(st.BatchFill) != 4 {
		t.Errorf("idle BatchFill has %d buckets, want the configured batch size 4", len(st.BatchFill))
	}
	// The bare collector honours the same contract (the fleet snapshots
	// collectors directly).
	if cst := serve.NewCollector(3).Snapshot(); math.IsNaN(cst.MeanBatchFill) || cst.P50 != 0 || cst.P99 != 0 {
		t.Errorf("idle collector snapshot violates the zero-traffic contract: %+v", cst)
	}
}
