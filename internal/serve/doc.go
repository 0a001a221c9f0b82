// Package serve is the batch machinery under the repository's one
// dispatcher: what turns a set of admitted single-sample requests into
// one large Model.ForwardBatch GEMM, which is where the multi-core
// inference win lives (a stacked (B·G²)-row product keeps a worker pool
// busy where B separate (G²)-row products starve it — see
// internal/nn/batch.go).
//
// It owns no queue and starts no goroutine. internal/fleet does the
// admitting, coalescing, capping, deadlining and draining — for one
// model or many, behind the façade's milr.Fleet — and calls into three
// pieces kept here:
//
//   - Request: one admitted sample — its input, its caller's context,
//     its admission timestamp (what the coalescing window and the
//     latency quantiles measure from), its queue-wait span, and a
//     buffered result channel the caller Awaits.
//   - ExecuteBatch: answers one coalesced batch. Requests whose context
//     is already done are dropped at flush time and answered with the
//     context's error; the survivors run through exactly one
//     PredictBatch — inside the model's Gate when it has one — and each
//     gets its own result back.
//   - Collector / Stats: lifetime counters, the batch-fill histogram,
//     and exact latency quantiles over a bounded sliding window, so a
//     long-lived queue's stats memory never grows. The fleet keeps one
//     Collector per registered model.
//
// QueueFullError and the ErrQueueFull sentinel it wraps live here too,
// so the gateway can errors.As a rejection without importing the
// dispatcher.
//
// Invariants, pinned by serve_test.go (which drives a one-model
// fleet.Fleet) and the façade tests:
//
//   - Bit identity: a coalesced answer equals the answer a direct
//     Model.Predict call would give, to the last bit, at every batch
//     size and worker count. This is inherited from the ForwardBatch
//     contract (internal/nn/batch_equiv_test.go) — coalescing is purely
//     a throughput/latency trade, never an accuracy one.
//   - Cancellation isolation: a request whose context is cancelled is
//     dropped from its batch at flush time and answered with the
//     context's error; the other requests in the batch are unaffected.
//   - Scrub interleaving: with the gate set to Protector.Sync, batch
//     execution serializes against the MILR engine's detect/recover
//     cycles (a scrub observes quiescent weights, inference observes
//     fully-recovered ones), while admission keeps accepting requests —
//     a self-heal pause delays answers, it never refuses them.
//   - Answer-after-count: a batch's counters and spans land before any
//     of its requests is answered, so a caller that reads Stats (or the
//     trace ring) right after its reply finds itself served.
//
// The package sits between the dispatcher (internal/fleet) and the
// inference substrate (internal/nn); it deliberately knows nothing
// about the MILR engine beyond the opaque gate. See ARCHITECTURE.md for
// the full layer map.
package serve
