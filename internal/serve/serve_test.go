package serve_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"milr/internal/fleet"
	"milr/internal/nn"
	"milr/internal/prng"
	"milr/internal/serve"
	"milr/internal/tensor"
)

// The single-queue serving contracts: greedy coalescing under backlog,
// timer flush, cancelled-neighbour isolation, PredictBatch order and
// cap-unqueue, drain-on-close, expired-at-door. This package owns no
// queue, so they pin its Request/ExecuteBatch/Collector machinery
// through the one dispatcher that drives it: a fleet.Fleet holding a
// single model.

// server is that one-model Fleet, with the model name filled in.
type server struct{ f *fleet.Fleet }

const model = "m"

// newServer builds a Fleet over cfg and registers m as its only model,
// with gate (may be nil) wrapping every batch. cfg.QueueCap, the
// fleet-wide default, is therefore the one queue's cap.
func newServer(m *nn.Model, cfg fleet.Config, gate func(func())) (*server, error) {
	f := fleet.New(cfg)
	if err := f.Register(model, m, fleet.ModelConfig{Gate: gate}); err != nil {
		f.Close()
		return nil, err
	}
	return &server{f}, nil
}

func (s *server) Predict(ctx context.Context, x *tensor.Tensor) (int, error) {
	return s.f.Predict(ctx, model, x)
}

func (s *server) PredictBatch(ctx context.Context, xs []*tensor.Tensor) ([]int, error) {
	return s.f.PredictBatch(ctx, model, xs)
}

func (s *server) Stats() serve.Stats { return s.f.Stats().Models[model].Stats }

func (s *server) Close() error { return s.f.Close() }

// tinyModel builds the deterministic test network and the direct
// (unserved) predictions the server must reproduce bit-identically.
func tinyModel(t *testing.T, nInputs int) (*nn.Model, []*tensor.Tensor, []int) {
	t.Helper()
	m, err := nn.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(42)
	stream := prng.New(7)
	xs := make([]*tensor.Tensor, nInputs)
	want := make([]int, nInputs)
	for i := range xs {
		xs[i] = stream.Tensor(12, 12, 1)
		want[i], err = m.Predict(xs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	return m, xs, want
}

// brake is a ModelConfig.Gate that parks the batch executor until the
// test releases it, making batch boundaries deterministic: while one
// batch is parked inside the gate, the test can queue exactly the
// requests it wants coalesced into the next one.
type brake struct {
	entered chan struct{} // one token per execute() entering the gate
	release chan struct{} // one token lets one execute() proceed
}

func newBrake() *brake {
	return &brake{entered: make(chan struct{}, 64), release: make(chan struct{}, 64)}
}

func (b *brake) gate(fn func()) {
	b.entered <- struct{}{}
	<-b.release
	fn()
}

func waitAdmitted(t *testing.T, s *server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Admitted < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d admissions (stats %+v)", n, s.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestPredictMatchesDirect(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m, xs, want := tinyModel(t, 16)
		m.SetWorkers(workers)
		s, err := newServer(m, fleet.Config{BatchSize: 4, MaxDelay: time.Millisecond}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for i, x := range xs {
			got, err := s.Predict(ctx, x)
			if err != nil {
				t.Fatalf("workers=%d predict %d: %v", workers, i, err)
			}
			if got != want[i] {
				t.Fatalf("workers=%d predict %d: served %d, direct %d", workers, i, got, want[i])
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.Served != 16 || st.Admitted != 16 {
			t.Fatalf("served %d admitted %d, want 16/16", st.Served, st.Admitted)
		}
	}
}

func TestGreedyCoalescingUnderBacklog(t *testing.T) {
	// MaxDelay 0: the server must still coalesce requests that queued
	// up while a previous batch was executing. The brake holds batch 1
	// (a single request) inside the gate while eight more arrive; they
	// must all land in batch 2.
	m, xs, want := tinyModel(t, 9)
	br := newBrake()
	s, err := newServer(m, fleet.Config{BatchSize: 8, MaxDelay: 0}, br.gate)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	got := make([]int, len(xs))
	errs := make([]error, len(xs))
	predict := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = s.Predict(ctx, xs[i])
		}()
	}
	predict(0)
	<-br.entered // batch 1 (request 0 alone) is parked in the gate
	for i := 1; i < 9; i++ {
		predict(i)
	}
	waitAdmitted(t, s, 9)
	br.release <- struct{}{} // run batch 1
	<-br.entered             // batch 2 (requests 1..8) reached the gate
	br.release <- struct{}{}
	wg.Wait()
	for i := range xs {
		if errs[i] != nil {
			t.Fatalf("predict %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("predict %d: served %d, direct %d", i, got[i], want[i])
		}
	}
	st := s.Stats()
	if st.Batches != 2 {
		t.Fatalf("batches = %d, want 2 (stats %+v)", st.Batches, st)
	}
	if st.BatchFill[0] != 1 || st.BatchFill[7] != 1 {
		t.Fatalf("batch-fill histogram %v, want one 1-batch and one 8-batch", st.BatchFill)
	}
	if st.MeanBatchFill != 4.5 {
		t.Fatalf("mean batch fill = %v, want 4.5", st.MeanBatchFill)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCancelledRequestDoesNotPoisonBatch(t *testing.T) {
	m, xs, want := tinyModel(t, 4)
	br := newBrake()
	s, err := newServer(m, fleet.Config{BatchSize: 8, MaxDelay: 0}, br.gate)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Park a throwaway batch in the gate so the interesting requests
	// coalesce deterministically behind it.
	firstDone := make(chan error, 1)
	go func() {
		_, err := s.Predict(context.Background(), xs[0])
		firstDone <- err
	}()
	<-br.entered

	cancelCtx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var cancelledErr error
	go func() {
		defer wg.Done()
		_, cancelledErr = s.Predict(cancelCtx, xs[1])
	}()
	got := make([]int, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = s.Predict(context.Background(), xs[2+i])
		}()
	}
	waitAdmitted(t, s, 4)
	cancel() // cancelled strictly before its batch flushes
	br.release <- struct{}{}
	<-br.entered // batch 2: the cancelled request has been dropped
	br.release <- struct{}{}
	wg.Wait()
	if err := <-firstDone; err != nil {
		t.Fatalf("throwaway predict: %v", err)
	}
	if !errors.Is(cancelledErr, context.Canceled) {
		t.Fatalf("cancelled request returned %v, want context.Canceled", cancelledErr)
	}
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("live request %d: %v", i, errs[i])
		}
		if got[i] != want[2+i] {
			t.Fatalf("live request %d: served %d, direct %d — cancelled neighbour poisoned the batch", i, got[i], want[2+i])
		}
	}
	st := s.Stats()
	if st.Cancelled != 1 {
		t.Fatalf("cancelled = %d, want 1 (stats %+v)", st.Cancelled, st)
	}
	// Batch 2 executed the two survivors: the cancelled request must
	// not occupy a batch slot.
	if st.BatchFill[1] != 1 {
		t.Fatalf("batch-fill histogram %v, want one 2-batch for the survivors", st.BatchFill)
	}
}

func TestTimerFlushCoalesces(t *testing.T) {
	// Four concurrent clients against a batch size of 8: the window
	// timer (not batch-full) must flush them as one batch.
	m, xs, want := tinyModel(t, 4)
	s, err := newServer(m, fleet.Config{BatchSize: 8, MaxDelay: 250 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	got := make([]int, 4)
	errs := make([]error, 4)
	for i := range xs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = s.Predict(context.Background(), xs[i])
		}()
	}
	wg.Wait()
	for i := range xs {
		if errs[i] != nil {
			t.Fatalf("predict %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("predict %d: served %d, direct %d", i, got[i], want[i])
		}
	}
	st := s.Stats()
	if st.Batches != 1 || st.BatchFill[3] != 1 {
		t.Fatalf("expected one 4-filled batch, got %+v", st)
	}
	if st.P50 <= 0 || st.P99 < st.P50 {
		t.Fatalf("latency quantiles out of order: p50=%v p99=%v", st.P50, st.P99)
	}
}

func TestPredictBatchKeepsOrder(t *testing.T) {
	m, xs, want := tinyModel(t, 16)
	s, err := newServer(m, fleet.Config{BatchSize: 4, MaxDelay: time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.PredictBatch(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: served %d, direct %d", i, got[i], want[i])
		}
	}
	if _, err := s.PredictBatch(context.Background(), nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestAdmissionValidation(t *testing.T) {
	m, xs, _ := tinyModel(t, 1)
	s, err := newServer(m, fleet.Config{BatchSize: 2, MaxDelay: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Predict(ctx, nil); err == nil {
		t.Fatal("nil input accepted")
	}
	if _, err := s.Predict(ctx, tensor.New(3, 3, 1)); err == nil {
		t.Fatal("wrong-shape input accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Predict(cancelled, xs[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context admitted: %v", err)
	}
	if _, err := newServer(nil, fleet.Config{}, nil); err == nil {
		t.Fatal("nil model accepted")
	}
}

// TestPredictBatchQueueCapUnqueuesAdmitted pins the shed-batch
// contract: when a PredictBatch hits the queue cap partway through
// admission, the samples it already admitted — whose answers nobody
// will read — are removed from the queue instead of burning a GEMM,
// and are accounted as cancelled.
func TestPredictBatchQueueCapUnqueuesAdmitted(t *testing.T) {
	m, xs, want := tinyModel(t, 3)
	br := newBrake()
	s, err := newServer(m, fleet.Config{BatchSize: 1, MaxDelay: 0, QueueCap: 1}, br.gate)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Park one request inside the gate so the queue-cap state is
	// deterministic for the PredictBatch that follows.
	type answer struct {
		class int
		err   error
	}
	first := make(chan answer, 1)
	go func() {
		class, err := s.Predict(ctx, xs[0])
		first <- answer{class, err}
	}()
	<-br.entered // request 0 taken from the queue, parked in the gate

	// Two samples against a cap of 1: the first is admitted, the second
	// rejected — and the first must be unqueued on the way out.
	if _, err := s.PredictBatch(ctx, xs[1:3]); !errors.Is(err, serve.ErrQueueFull) {
		t.Fatalf("PredictBatch over cap: %v, want ErrQueueFull", err)
	}
	st := s.Stats()
	if st.Queued != 0 || st.Cancelled != 1 || st.Rejected != 1 {
		t.Fatalf("queued/cancelled/rejected = %d/%d/%d, want 0/1/1 (stats %+v)",
			st.Queued, st.Cancelled, st.Rejected, st)
	}

	br.release <- struct{}{}
	if a := <-first; a.err != nil || a.class != want[0] {
		t.Fatalf("parked request: class %d err %v, want %d", a.class, a.err, want[0])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Served != 1 {
		t.Fatalf("served %d, want 1 — an unqueued request was executed anyway", st.Served)
	}
}

func TestCloseDrainsAdmittedRequests(t *testing.T) {
	m, xs, want := tinyModel(t, 6)
	br := newBrake()
	s, err := newServer(m, fleet.Config{BatchSize: 8, MaxDelay: 0}, br.gate)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]int, len(xs))
	errs := make([]error, len(xs))
	wg.Add(1)
	go func() {
		defer wg.Done()
		got[0], errs[0] = s.Predict(context.Background(), xs[0])
	}()
	<-br.entered // batch 1 parked; the rest will be drained by Close
	for i := 1; i < 6; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = s.Predict(context.Background(), xs[i])
		}()
	}
	waitAdmitted(t, s, 6)
	closeDone := make(chan error, 1)
	go func() { closeDone <- s.Close() }()
	br.release <- struct{}{} // run parked batch 1
	<-br.entered             // drain batch with requests 1..5
	br.release <- struct{}{}
	if err := <-closeDone; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := s.Predict(context.Background(), xs[0]); !errors.Is(err, fleet.ErrClosed) {
		t.Fatalf("admission after Close returned %v, want ErrClosed", err)
	}
	st := s.Stats()
	if st.Served != 6 || st.BatchFill[4] != 1 {
		t.Fatalf("drain did not serve the admitted requests: %+v", st)
	}
	for i := range xs {
		if errs[i] != nil {
			t.Fatalf("request %d admitted before Close was not served: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("request %d: served %d, direct %d", i, got[i], want[i])
		}
	}
	if err := s.Close(); err != nil { // second Close is a no-op
		t.Fatal(err)
	}
}

func TestExpiredDeadlineRejectedAtEnqueue(t *testing.T) {
	// Admission-control regression: a request whose context is already
	// expired when it arrives must be refused at the door — it must
	// never occupy a batch slot until flush. The batch-fill histogram
	// is the witness: only the live request's 1-batch may appear.
	m, xs, want := tinyModel(t, 2)
	s, err := newServer(m, fleet.Config{BatchSize: 4, MaxDelay: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := s.Predict(expired, xs[0]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline Predict returned %v, want context.DeadlineExceeded", err)
	}
	if _, err := s.PredictBatch(expired, xs); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline PredictBatch returned %v, want context.DeadlineExceeded", err)
	}
	st := s.Stats()
	if st.Admitted != 0 {
		t.Fatalf("admitted = %d, want 0 — an expired request occupied a queue slot", st.Admitted)
	}

	// A live request right after must be unaffected.
	got, err := s.Predict(context.Background(), xs[1])
	if err != nil {
		t.Fatal(err)
	}
	if got != want[1] {
		t.Fatalf("live request after expired ones: served %d, direct %d", got, want[1])
	}
	if st := s.Stats(); st.Admitted != 1 || st.Served != 1 {
		t.Fatalf("admitted/served = %d/%d, want 1/1", st.Admitted, st.Served)
	}
}
