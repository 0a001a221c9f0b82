// Package soak is the chaos-soak harness: a deterministic, scripted
// campaign that points the repository's fault machinery at its live
// serving stack and validates the paper's availability model (Eq. 6,
// internal/availability) under real load.
//
// A Scenario is a seeded script of phases: each phase names a fault
// shape (uniform-RBER bit flips, correlated bursts across adjacent
// layers, stuck-at cells, whole-model overwrite of one fleet member),
// an event rate, and a target model. Run expands the script into a
// fully precomputed timeline — every injection event with its own
// derived seed, every window's Poisson arrival counts — so the same
// seed replays the identical event sequence regardless of worker count
// or wall-clock speed.
//
// Execution is windowed on a virtual clock: per window the harness (1)
// applies the window's injection events, each inside the target
// Protector's Sync gate (the same mutation gate serving batches hold),
// (2) runs one round-robin self-heal scrub via Fleet.ScrubOnce when the
// guard cadence is due, and (3) fires the window's client arrivals
// concurrently through the fleet's Predict surface — as one
// bench.RunOpenLoop schedule with every arrival due at once, the same
// arrival engine cmd/milr-fleet -open-loop paces by wall clock —
// counting correct answers against the clean model's. Because fleet
// answers are bit-identical to direct Model.Predict calls and weights
// only change at window boundaries, per-window correctness counts are
// replayable byte for byte; wall-clock measurements (tail latency,
// scrub durations) ride along without participating in the
// deterministic transcript. Config.Overlap trades that replay guarantee
// for realism by running due scrubs concurrently with the window's
// traffic — the mode the race tests and heal-tail-latency measurements
// use.
//
// After the run the harness fits Eq. 6 at the measured error rate:
// detection and recovery costs are calibrated up front on the idle
// models, the observed mean time between injected errors feeds
// availability.ParamsForInterval, and the report states predicted vs
// measured availability with the delta. cmd/milr-soak is the CLI over
// this package.
package soak
