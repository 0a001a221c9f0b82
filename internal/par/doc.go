// Package par provides the bounded worker pools behind every parallel
// path in this repository: batched GEMM inference, concurrent layer
// scrubbing and recovery, sharded fault-injection campaigns, and the
// serving front-end's batch execution.
//
// Design rules, enforced here once so callers inherit them:
//
//   - Pools are bounded: a zero worker request is serial, a negative
//     one resolves to GOMAXPROCS, never more. Explicit positive requests
//     are honored as-is so tests can inject worker counts (e.g. 2 on a
//     1-core CI box) and prove parallel–serial equivalence.
//   - Pools are joined: every function returns only after all workers
//     have exited. No goroutine outlives the call. (Pool, the long-lived
//     executor behind the fleet router's shared batch budget, is the one
//     deliberate exception: its tasks outlive the submitting call and
//     are joined explicitly with Wait at shutdown.)
//   - Results are deterministic: work is addressed by index, errors are
//     reported lowest-index-first, and nothing depends on scheduling
//     order.
//
// The worker-count convention every layer of the stack shares (0 =
// serial, n > 0 = at most n goroutines, negative = GOMAXPROCS) is
// implemented by Resolve; see ARCHITECTURE.md for which knob tunes
// which pool.
package par
