// Package core implements MILR — Mathematically Induced Layer Recovery —
// the contribution of the DSN 2021 paper this repository reproduces.
//
// MILR exploits the algebraic relationship between each CNN layer's
// input x, parameters p and output y:
//
//	f(x, p) = y          (forward pass)
//	f⁻¹(y, p) = x        (backward pass, when invertible)
//	R(x, y) = p          (parameter solving)
//
// The engine has the paper's three phases (§III):
//
//   - Initialization: plan checkpoint placement, store partial
//     checkpoints, full checkpoints at non-invertible boundaries, dummy
//     data (seeded-PRNG regenerable, only outputs stored), bias sums and
//     2-D CRC codes.
//   - Error detection: regenerate each layer's pseudo-random input,
//     forward it through that layer alone, and compare against the
//     partial checkpoint: one PRNG row (In values for a dense layer,
//     one F×F×Z receptive field for a conv) times the layer's
//     parameter matrix, in a one-row GEMM.
//   - Error recovery: move golden tensors from the nearest checkpoints to
//     the erroneous layers with forward and inverse passes, then call each
//     layer's parameter-recovery function R. The pipeline is batched
//     per checkpoint segment: one backward sweep captures every
//     flagged layer's golden output, one forward sweep delivers golden
//     inputs, re-solves each layer in order, verifies it with the
//     same scrub that flagged it (a conv or dense layer's one-row
//     probe, a bias layer's parameter sum) and carries the propagation
//     through the recovered layer (≤ 1 propagation GEMM per conv/dense
//     layer per segment); independent segments recover concurrently
//     (see internal/core/segment.go). The one-layer-at-a-time path it
//     replaced survives only as the tests' bit-identity oracle
//     (recover_oracle_test.go).
//
// Concurrency contract (see ARCHITECTURE.md): the Protector's engine
// lock serializes whole phases against each other and against external
// weight mutation routed through Protector.Sync; the engine's internal
// parallelism (at the model's worker count, nn.Model.Workers —
// concurrent layer scrubs, per-filter / per-column solves, init rank
// probes) runs inside the lock and is
// bit-identical to serial at every worker count. Every long-running
// phase has a ...Context form whose cancellation is layer-atomic: each
// flagged layer is either untouched or fully re-solved, never
// half-written. The engine schedules nothing and starts no goroutine of
// its own: the deployment scrub loop is internal/fleet's guard, which
// calls SelfHealContext, and the serving front-end interleaves with it by running inference
// batches under the same lock.
package core
