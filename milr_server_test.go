package milr_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"milr"
	"milr/internal/prng"
)

// TestServerIsFleetOfOne pins the contract a Server inherits from being
// a one-model Fleet: one closed sentinel under both names, and a capped
// rejection that is the fleet's typed *QueueFullError — the cap plus the
// (fixed, non-empty) model name — not a second error shape.
func TestServerIsFleetOfOne(t *testing.T) {
	// Both are bare sentinels, so errors.Is between them is identity.
	if !errors.Is(milr.ErrServerClosed, milr.ErrFleetClosed) {
		t.Fatalf("ErrServerClosed %v and ErrFleetClosed %v are different values", milr.ErrServerClosed, milr.ErrFleetClosed)
	}
	ctx := context.Background()
	model, err := milr.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(3)
	stream := prng.New(5)
	xs := make([]*milr.Tensor, 3)
	for i := range xs {
		xs[i] = stream.Tensor(12, 12, 1)
	}
	rt := milr.NewRuntime(
		milr.WithSeed(3),
		milr.WithBatchSize(1),
		milr.WithMaxBatchDelay(0),
		milr.WithQueueCap(1),
	)
	prot, err := rt.Protect(ctx, model)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rt.NewGuardedServer(prot)
	if err != nil {
		t.Fatal(err)
	}

	// Hold the engine lock so request 0 parks at the gate and request 1
	// fills the queue's single slot; request 2 must then be refused.
	lockHeld := make(chan struct{})
	releaseLock := make(chan struct{})
	go prot.Sync(func() {
		close(lockHeld)
		<-releaseLock
	})
	<-lockHeld
	var wg sync.WaitGroup
	admitted := make([]error, 2)
	for i := range admitted {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			_, admitted[i] = srv.Predict(reqCtx, xs[i])
		}()
		// Request 0 leaves the queue for the gate; request 1 stays queued.
		waitServer(t, srv, func(s milr.ServerStats) bool {
			return s.Admitted == int64(i+1) && s.Queued == i
		})
	}
	_, err = srv.Predict(ctx, xs[2])
	if !errors.Is(err, milr.ErrQueueFull) {
		t.Fatalf("predict into a full queue: %v, want ErrQueueFull", err)
	}
	var qf *milr.QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("rejection %v is not a *QueueFullError", err)
	}
	if qf.Cap != 1 || qf.Model == "" {
		t.Errorf("rejection detail = %+v, want Cap=1 and a non-empty Model", qf)
	}

	close(releaseLock)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range admitted {
		if err != nil {
			t.Errorf("admitted request %d not drained: %v", i, err)
		}
	}
	_, err = srv.Predict(ctx, xs[0])
	if !errors.Is(err, milr.ErrServerClosed) || !errors.Is(err, milr.ErrFleetClosed) {
		t.Errorf("admission after Close: %v, want it to match both ErrServerClosed and ErrFleetClosed", err)
	}
	if _, err := srv.PredictBatch(ctx, xs); !errors.Is(err, milr.ErrServerClosed) {
		t.Errorf("batch admission after Close: %v, want ErrServerClosed", err)
	}
}
