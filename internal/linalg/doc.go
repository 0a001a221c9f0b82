// Package linalg contains the dense float64 linear algebra MILR's
// parameter-recovery functions are built on: Householder QR, and QR
// with column pivoting for the engine's rank probes, and one
// least-squares entry point, FactorLeastSquares. It takes the QR path
// for the overdetermined systems QR accepts and, for every other system
// (underdetermined ones, the paper's lstsq fallback for whole-layer
// conv corruption, §V-B, and rank-deficient ones), the pseudo-inverse
// solution from a complete orthogonal decomposition built on the
// pivoted factor. No solve forms AᵀA or AAᵀ, so none squares the
// condition number.
//
// Everything is hand-rolled on flat row-major float64 slices; the module
// is stdlib-only by design. The solvers preserve a fixed accumulation
// order, so the engine's parallel per-filter/per-column solves (which
// call them once per independent unknown) are bit-identical to serial
// — see ARCHITECTURE.md's bit-identity invariant chain.
//
// The Householder factorizations (FactorQR, FactorQRPivot) sweep the
// row-major matrix row by row: a step's dot products s_j = Σ_i a_ik·a_ij
// accumulate over rows i = k… in ascending order into one vector, its
// update a_ij += s_j·a_ik walks the same rows, and the pivoted factor's
// remaining column norms are Hypot folds over rows k+1… in ascending
// order, taken in the same sweep from the values that update writes.
// Each column therefore sees the same products, sums and Hypot calls, in
// the same order, as a walk down that column, so the factors, pivots and
// rank are bit for bit those of the column walks the package tests keep
// as oracles; only a NaN's sign and payload may differ, which Go leaves
// unspecified.
//
// The pivoted factor's fold is hypotFold. On amd64 it is an inlined Go
// replica of math.Hypot's assembly (archHypot), which no loop can
// inline: max·√(1+(min/max)²) with archHypot's special cases, each
// operation rounded as the assembly rounds it; a test compares it with
// math.Hypot bit for bit. On every other port it is math.Hypot itself:
// 386's is x87 code, and arm64, ppc64 and s390x fuse.
//
// The package holds what the engine and the repository benchmark's
// probes call and no more. Everything is serial except QR.SolveMany,
// which shares one factorization across independent right-hand sides
// on a bounded pool; right-hand sides are vectors, never matrices.
package linalg
