// Package tensor implements the dense N-dimensional float32 tensors that
// every other subsystem in this repository is built on: the CNN inference
// and training stack (internal/nn), the MILR checkpoint/recovery engine
// (internal/core), and the linear-algebra solvers (internal/linalg, which
// operate on float64 matrices converted from these tensors).
//
// Tensors are row-major, contiguous, and deliberately simple: a shape plus
// a flat []float32 backing slice. The MILR paper (DSN 2021) works with
// 32-bit float weights, so float32 is the canonical element type; solving
// is done in float64 by internal/linalg for numerical headroom.
//
// The GEMM kernel here is the repository's hot path: register-tiled,
// zero-skipping, with per-output-element float64 accumulation in a
// fixed k-ascending order, so every entry point (MatMul and
// MatMulWorkers for the solvers and training, and the allocation-free
// MatMulInto and ConvInto that every inference forward uses, the
// latter multiplying a convolution's im2col matrix without forming it,
// from its input compacted once per pixel) is bit-identical to every
// other at any worker count — the root of the
// bit-identity invariant chain described in ARCHITECTURE.md. Its tiles
// come in two implementations with the same arithmetic: AVX2/FMA
// assembly (gemm_amd64.s), chosen at init where CPUID reports it, and
// the portable Go tile that runs everywhere else and serves as the
// SIMD one's oracle; Kernel names the one in use. SubScaledBand, the
// acc −= Σ vals[k]·row_k update under every MILR heal loop (the conv
// residual, the dense back substitution, the dense dummy outputs), one
// band of rows subtracted k ascending, rides the same probe: its AVX2
// body keeps each 16-column strip of the accumulator in registers
// across the band and multiplies, then subtracts, fusing nothing, so it
// rounds as its Go loop does.
// The GEMMCalls counter exists so tests can enforce the
// one-GEMM-per-layer batching contract.
package tensor
