package serve

import (
	"context"
	"fmt"
	"time"

	"milr/internal/nn"
	"milr/internal/obs"
	"milr/internal/tensor"
)

// This file is the request/batch-execution machinery under the
// repository's one dispatcher (internal/fleet): cancellation at flush,
// gate-wrapped execution, per-request demux and stats all come from
// here.

// Request is one admitted sample waiting to be coalesced into a batch.
// Build one with NewRequest at admission time; the dispatcher that owns
// the queue eventually answers it through ExecuteBatch, and the caller
// collects the answer with Await.
type Request struct {
	x   *tensor.Tensor
	ctx context.Context
	enq time.Time
	// done receives exactly one result. Buffered so the executor never
	// blocks on a caller that abandoned the request.
	done chan result
	// wait is the request's queue-wait span (admission to batch pickup),
	// attached by the admitting dispatcher via SetWaitSpan and ended by
	// whoever resolves the wait: ExecuteBatch (batched or expired) or
	// unqueue (abandoned). The queue lock orders the hand-off between
	// those goroutines. Nil when tracing is off.
	wait *obs.Span
}

type result struct {
	class int
	err   error
}

// NewRequest builds a Request for x under ctx, stamped with the
// admission time the latency quantiles measure from.
func NewRequest(ctx context.Context, x *tensor.Tensor) *Request {
	return &Request{x: x, ctx: ctx, enq: time.Now(), done: make(chan result, 1)}
}

// EnqueuedAt returns the admission timestamp — what a dispatcher's
// coalescing window (MaxDelay) is measured against.
func (r *Request) EnqueuedAt() time.Time { return r.enq }

// SetWaitSpan attaches the request's queue-wait span. Dispatchers call
// it at admission, before the request becomes visible to their batch
// loop; the span is ended exactly once by EndWait.
func (r *Request) SetWaitSpan(s *obs.Span) { r.wait = s }

// EndWait ends the request's queue-wait span, recording how the wait
// resolved ("batched", "expired" or "unqueued"). Safe to call when no
// span is attached; only the first call counts.
func (r *Request) EndWait(outcome string) {
	if r.wait == nil {
		return
	}
	r.wait.SetAttr("outcome", outcome)
	r.wait.End()
	r.wait = nil
}

// Await blocks until the request is answered or ctx is done, whichever
// comes first; an abandoned request is answered into its buffered
// channel and dropped.
func (r *Request) Await(ctx context.Context) (int, error) {
	select {
	case res := <-r.done:
		return res.class, res.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// ExecuteBatch answers one coalesced batch: requests whose context is
// already done are dropped (answered with their context's error, never
// occupying a GEMM slot), the survivors run through one
// Model.PredictBatch — under gate when non-nil — and each gets its own
// result back. Counters and latencies land in c; model names the fleet
// model in batch-failure errors.
func ExecuteBatch(m *nn.Model, gate func(func()), batch []*Request, c *Collector, model string) {
	// Batch-level spans parent under the first request's queue-wait
	// chain: a coalesced batch belongs to one trace tree even though it
	// answers many requests. With tracing off this is a nil span and a
	// single context lookup.
	actx, asm := obs.Start(batch[0].ctx, "serve.batch_assemble")
	live := batch[:0]
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			r.EndWait("expired")
			r.done <- result{err: err}
			c.Cancel()
			continue
		}
		r.EndWait("batched")
		live = append(live, r)
	}
	asm.SetInt("fill", len(live))
	asm.SetInt("dropped", len(batch)-len(live))
	asm.End()
	if len(live) == 0 {
		return
	}
	xs := make([]*tensor.Tensor, len(live))
	for i, r := range live {
		xs[i] = r.x
	}
	fctx, fwd := obs.Start(actx, "nn.forward_batch")
	fwd.SetInt("batch", len(live))
	g0 := tensor.GEMMCalls()
	var preds []int
	var err error
	runBatch := func() { preds, err = m.PredictBatchContext(fctx, xs) }
	if gate != nil {
		gate(runBatch)
	} else {
		runBatch()
	}
	// gemms is the process-wide kernel-counter delta across this batch:
	// exact under sequential traffic, approximate when other models'
	// batches run concurrently. The forward span — and with it every
	// tensor.gemm child — must land in the ring before any request is
	// answered: a caller's enclosing span (gateway.request) ends right
	// after Await returns, and the ring must always order a batch's
	// spans before them for byte-identical replays.
	fwd.SetInt("gemms", int(tensor.GEMMCalls()-g0))
	fwd.End()
	now := time.Now()
	if err != nil {
		err = fmt.Errorf("fleet: model %q batch of %d failed: %w", model, len(live), err)
		for _, r := range live {
			r.done <- result{err: err}
		}
		c.Fail(len(live))
		return
	}
	lats := make([]time.Duration, len(live))
	for i, r := range live {
		lats[i] = now.Sub(r.enq)
	}
	// Count before answering: a caller that reads Stats right after its
	// reply must find itself served.
	c.Serve(len(live), lats)
	for i, r := range live {
		r.done <- result{class: preds[i]}
	}
}
