// Package fleet is the multi-model serving router: one Fleet registers
// N named models, gives each its own coalescing admission queue, and
// arbitrates a single shared batch-execution budget (par.Pool) across
// all of them, so several models serve heavy traffic side by side
// without one hot model starving the rest.
//
// It is the only admission queue, coalescing window and dispatcher in
// the tree, and the façade's milr.Fleet, one model or many, is its only
// entry point. Batches execute through package serve's shared machinery
// (Request, ExecuteBatch — one ForwardBatch GEMM per batch — and one
// serve.Collector per model); on top of that the router owns:
//
//   - Weighted fair arbitration. One dispatcher goroutine owns every
//     queue. Each round it considers the models whose queue head is
//     ready to flush (full batch, expired MaxDelay window, or a
//     draining close) and picks the one with the lowest fair-share
//     "pass", a stride-scheduling account that advances by
//     requests/weight each time a model flushes. Under contention a
//     model with weight w therefore receives batch slots in proportion
//     to w; an idle model's account is charged nothing, so light
//     traffic never pays for heavy neighbours — and a model
//     (re-)entering the runnable set is clamped up to the arbiter's
//     global virtual time, so idling never banks priority either
//     (TestIdleModelEarnsNoCredit). Per model, batches stay
//     strictly sequential (FIFO answers); across models, up to
//     Config.Workers batches execute concurrently.
//
//   - Admission control. Every model's queue has a configurable cap
//     (Config.QueueCap fleet-wide, ModelConfig.QueueCap per model).
//     At cap, admission fast-fails with ErrQueueFull — O(1) load
//     shedding, the request never occupies a queue slot, and the
//     rejection is counted in the model's Rejected series.
//     Config.Deadline supplies a default per-request deadline to any
//     call whose context has none, so an open-loop client cannot wait
//     unboundedly. A request whose context is already expired is
//     rejected at enqueue time, never occupying a batch slot.
//
// The fleet is elastic: models come and go under live traffic.
// Unregister cuts admission over to ErrUnknownModel immediately, drains
// the model's queue with no coalescing delay, and — once the last batch
// lands — retires the backend from the stride scheduler and the scrub
// rotation, folding its admission totals into the fleet's retired
// aggregates so Stats stays monotonic. Replace swaps a model's engine
// (model, weight, cap, gate, scrub) atomically at batch granularity: the
// dispatcher snapshots an engine under the fleet lock when it claims a
// batch, so a batch in flight finishes on the old engine while
// everything after the swap — including requests already queued — runs
// on the new one, and no request is ever dropped or answered ErrClosed
// across the cutover (swap_test.go is the torture battery).
//
// Self-healing models register a Scrub hook (the façade wires it to
// Protector.SelfHealContext) and a Gate (Protector.Sync); StartGuard
// then round-robins scrub cycles across all such models on one
// schedule, each cycle running under its own model's engine lock so it
// serializes only against that model's inference batches.
//
// Invariants, pinned by fleet_test.go, milr_fleet_test.go and — for
// the single-queue contracts (greedy coalescing under backlog, timer
// flush, cancelled-neighbour isolation, drain-on-close) —
// internal/serve's serve_test.go, which drives a one-model Fleet:
//
//   - Bit identity: an answer routed through the fleet equals the
//     answer a direct Model.Predict/PredictBatch call would give, to
//     the last bit, for every model, at every worker count and weight.
//     Routing, fairness and admission control are throughput/latency
//     knobs, never accuracy ones.
//   - Fair-share arbitration: under saturation, flush counts track
//     weights (deterministic stride schedule, registration-order
//     tie-break) — a hot model cannot starve a cold one.
//   - Isolation: cancellation, queue overflow, corruption and scrub
//     pauses on one model never affect another model's requests.
//   - Zero-drop cutover: Unregister and Replace never drop an admitted
//     request — the queue drains through a live engine, the guard's
//     round-robin cursor survives a model vanishing mid-rotation
//     without panicking or starving the survivors, and an unregistered
//     model's totals stay in the fleet-wide aggregates (its per-model
//     series are dropped) so counters never move backwards.
//   - Drain-on-close: Close rejects new admissions fleet-wide
//     (ErrClosed), serves every already-admitted request on every
//     model, and joins the dispatcher, all executors and the guard
//     loop. Queue caps can reject under overload, but they can never
//     deadlock the drain.
//
// The package sits beside internal/serve, below the public façade
// (milr.NewFleet constructs fleets, wiring Protectors to Gate/Scrub
// hooks), and deliberately knows nothing about the MILR engine beyond
// those two opaque hooks. See ARCHITECTURE.md for the full layer map.
package fleet
