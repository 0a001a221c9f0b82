// Package linalg contains the dense float64 linear algebra MILR's
// parameter-recovery functions are built on: LU factorization with
// partial pivoting for square systems, QR with column pivoting for the
// engine's rank probes, and least-squares solvers (normal equations for
// overdetermined systems, minimum-norm for underdetermined ones,
// mirroring the paper's lstsq fallback for whole-layer conv corruption,
// §V-B).
//
// Everything is hand-rolled on flat row-major float64 slices; the module
// is stdlib-only by design. The solvers preserve a fixed accumulation
// order, so the engine's parallel per-filter/per-column solves (which
// call them once per independent unknown) are bit-identical to serial
// — see ARCHITECTURE.md's bit-identity invariant chain.
//
// The package holds what the engine and the repository benchmark's
// probes call and no more. Everything is serial except QR.SolveMany,
// which shares one factorization across independent right-hand sides
// on a bounded pool; right-hand sides are vectors, never matrices.
package linalg
