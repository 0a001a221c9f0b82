// Package bench is the experiment harness: it regenerates every table
// and figure in the paper's evaluation (§V) — the RBER sweeps (Figures
// 5/7/9), whole-weight sweeps (Figures 6/8/10), whole-layer corruption
// tables (IV/VI/VIII), storage tables (V/VII/IX), the timing table (X),
// the recovery-time curve (Figure 11), and the availability–accuracy
// trade-off (Figure 12).
//
// Networks come from internal/zoo and nowhere else: BuildEnv takes a zoo
// network name, and the zoo row, not this package, says which synthetic
// dataset the network trains and is evaluated on and which cost policy
// protects it. Trained weights may be cached on disk, keyed by network
// name, seed and training size.
//
// Scale knobs: the paper ran 40 injections per error-rate point against
// TensorFlow on a GPU; this reproduction runs on one CPU core, so Config
// defaults are scaled down and `-full` (cmd/milr-bench) restores paper
// scale. The estimators are identical; only the confidence intervals
// widen.
//
// Campaigns shard: with Config.Workers set, the independent
// (rate, run) cells of a sweep fan out across environment clones with
// per-cell PRNG streams derived from the master seed and cell
// coordinates alone, so results are byte-identical at any worker count
// (shard_test.go pins this). The package also hosts the tree's two
// load generators, one per regime. RunFleetLoad is the closed loop: the
// per-model client swarm behind cmd/milr-fleet and the
// BenchmarkServer*/BenchmarkFleetSkewed benches; a single-model load is
// a swarm with one spec. RunOpenLoop is the open loop: one arrival
// engine over a precomputed (target, input, due offset) schedule,
// behind cmd/milr-fleet -open-loop and every internal/soak window, and
// the only place an open-loop outcome is classified as correct, wrong,
// shed or expired.
package bench
