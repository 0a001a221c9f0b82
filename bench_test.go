// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (the experiment index lives in cmd/milr-bench -list), plus
// ablation benches for the reproduction's design choices and the
// serving/batching paths added on top (see ARCHITECTURE.md).
//
// These benches exercise the exact code paths of each experiment at a
// size that completes in seconds per iteration on one CPU core; the
// paper-scale sweeps (40 runs/point, full test sets) are regenerated by
// cmd/milr-bench (e.g. `go run ./cmd/milr-bench -exp fig5 -full`).
package milr_test

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"milr"
	"milr/internal/bench"
	"milr/internal/core"
	"milr/internal/crc2d"
	"milr/internal/faults"
	"milr/internal/nn"
	"milr/internal/obs"
	"milr/internal/prng"
	"milr/internal/tensor"
)

// Environments are built once per process and shared across benches.
var (
	envMu   sync.Mutex
	envs    = map[string]*bench.Env{}
	envCfgs = map[string]bench.Config{
		"tiny":        {Runs: 1, TestSamples: 40, TrainSamples: 80, Epochs: 3, Seed: 42},
		"mnist":       {Runs: 1, TestSamples: 30, TrainSamples: 120, Epochs: 1, Seed: 42},
		"cifar-small": {Runs: 1, TestSamples: 16, TrainSamples: 40, Epochs: 1, Seed: 42},
		"cifar-large": {Runs: 1, TestSamples: 12, TrainSamples: 30, Epochs: 1, Seed: 42},
	}
)

func sharedEnv(b *testing.B, network string) *bench.Env {
	b.Helper()
	envMu.Lock()
	defer envMu.Unlock()
	if env, ok := envs[network]; ok {
		return env
	}
	cfg := envCfgs[network]
	cfg.Verbose = io.Discard
	env, err := bench.BuildEnv(network, cfg, "")
	if err != nil {
		b.Fatalf("build %s env: %v", network, err)
	}
	envs[network] = env
	return env
}

// --- Tables I–III: network architectures ---

func BenchmarkTables1to3_Architectures(b *testing.B) {
	builders := []func() (*nn.Model, error){nn.NewMNISTNet, nn.NewCIFARSmallNet, nn.NewCIFARLargeNet}
	wantParams := []int{1669290, 698154, 2389786}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j, build := range builders {
			m, err := build()
			if err != nil {
				b.Fatal(err)
			}
			if m.ParamCount() != wantParams[j] {
				b.Fatalf("net %d: %d params, want %d", j, m.ParamCount(), wantParams[j])
			}
			_ = nn.Architecture(m)
		}
	}
}

// --- Figures 5/7/9: RBER sweeps ---

func rberBench(b *testing.B, network string, rate float64, scheme bench.Scheme) {
	env := sharedEnv(b, network)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bench.RBERSweep(env, []float64{rate}, []bench.Scheme{scheme})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[0].Stats.Median, "norm-acc")
	}
}

func BenchmarkFig5_MNIST_RBER(b *testing.B) {
	b.Run("none", func(b *testing.B) { rberBench(b, "mnist", 1e-5, bench.NoRecovery) })
	b.Run("ecc", func(b *testing.B) { rberBench(b, "mnist", 1e-5, bench.ECCOnly) })
	b.Run("milr", func(b *testing.B) { rberBench(b, "mnist", 1e-5, bench.MILROnly) })
	b.Run("ecc+milr", func(b *testing.B) { rberBench(b, "mnist", 1e-5, bench.ECCPlusMILR) })
}

func BenchmarkFig7_CIFARSmall_RBER(b *testing.B) {
	b.Run("milr", func(b *testing.B) { rberBench(b, "cifar-small", 1e-5, bench.MILROnly) })
}

func BenchmarkFig9_CIFARLarge_RBER(b *testing.B) {
	b.Run("milr", func(b *testing.B) { rberBench(b, "cifar-large", 1e-5, bench.MILROnly) })
}

// --- Figures 6/8/10: whole-weight error sweeps ---

func wholeWeightBench(b *testing.B, network string, rate float64) {
	env := sharedEnv(b, network)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bench.WholeWeightSweep(env, []float64{rate}, []bench.Scheme{bench.MILROnly})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[0].Stats.Median, "norm-acc")
	}
}

func BenchmarkFig6_MNIST_WholeWeight(b *testing.B)      { wholeWeightBench(b, "mnist", 1e-5) }
func BenchmarkFig8_CIFARSmall_WholeWeight(b *testing.B) { wholeWeightBench(b, "cifar-small", 1e-5) }
func BenchmarkFig10_CIFARLarge_WholeWeight(b *testing.B) {
	wholeWeightBench(b, "cifar-large", 1e-5)
}

// --- Tables IV/VI/VIII: whole-layer corruption + recovery ---

func wholeLayerBench(b *testing.B, network string) {
	env := sharedEnv(b, network)
	// Corrupt the first dense layer (fully recoverable in every
	// network); cmd/milr-bench regenerates the full per-layer table.
	var denseIdx = -1
	for i, l := range env.Model.Layers() {
		if _, ok := l.(*nn.Dense); ok {
			denseIdx = i
			break
		}
	}
	if denseIdx < 0 {
		b.Fatal("no dense layer")
	}
	inj := faults.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.OverwriteLayer(env.Model.Layer(denseIdx).(nn.Parameterized))
		_, rec, err := env.Protector.SelfHeal()
		if err != nil {
			b.Fatal(err)
		}
		if !rec.AllRecovered() {
			b.Fatalf("dense layer not recovered: %+v", rec.Results)
		}
		b.StopTimer()
		if err := env.Reset(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkTable4_MNIST_WholeLayer(b *testing.B)      { wholeLayerBench(b, "mnist") }
func BenchmarkTable6_CIFARSmall_WholeLayer(b *testing.B) { wholeLayerBench(b, "cifar-small") }
func BenchmarkTable8_CIFARLarge_WholeLayer(b *testing.B) { wholeLayerBench(b, "cifar-large") }

// --- Tables V/VII/IX: storage overhead ---

func BenchmarkTable5_Storage(b *testing.B) {
	for _, network := range []string{"mnist", "cifar-small", "cifar-large"} {
		network := network
		b.Run(network, func(b *testing.B) {
			env := sharedEnv(b, network)
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				rep := env.Protector.Storage()
				if rep.MILRBytes() <= 0 {
					b.Fatal("degenerate storage report")
				}
				b.ReportMetric(core.MB(rep.MILRBytes()), "MILR-MB")
				b.ReportMetric(core.MB(rep.BackupBytes), "backup-MB")
			}
		})
	}
}

// --- Table X: prediction and identification time ---

func BenchmarkTable10_Identification(b *testing.B) {
	for _, network := range []string{"mnist", "cifar-small", "cifar-large"} {
		network := network
		b.Run(network+"/predict", func(b *testing.B) {
			env := sharedEnv(b, network)
			x := env.Test[0].X
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.Model.Forward(x); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(network+"/identify", func(b *testing.B) {
			env := sharedEnv(b, network)
			gomaxprocsWorkers(b, env)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.Protector.Detect(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 11: recovery time vs number of errors ---

func BenchmarkFig11_RecoveryTime(b *testing.B) {
	for _, n := range []int{16, 256, 1024} {
		n := n
		b.Run(benchName(n), func(b *testing.B) {
			env := sharedEnv(b, "mnist")
			inj := faults.New(uint64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := env.Reset(); err != nil {
					b.Fatal(err)
				}
				inj.FlipExactBits(env.Model, n)
				b.StartTimer()
				if _, _, err := env.Protector.SelfHeal(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := env.Reset(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func benchName(n int) string {
	switch {
	case n < 100:
		return "errors=16"
	case n < 1000:
		return "errors=256"
	default:
		return "errors=1024"
	}
}

// --- Figure 12: availability vs minimum accuracy ---

func BenchmarkFig12_Availability(b *testing.B) {
	env := sharedEnv(b, "tiny")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := bench.AvailabilityCurve(env, 40)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 40 {
			b.Fatal("short curve")
		}
	}
}

// --- Ablations (design-choice benches) ---

// 2-D CRC group size: localization time and storage cost at groups of 4
// (the paper's choice) vs 8.
func BenchmarkAblation_CRCGroupSize(b *testing.B) {
	s := prng.New(1)
	const rows, cols = 64, 96
	vals := make([]float32, rows*cols)
	for i := range vals {
		vals[i] = s.Uniform(-1, 1)
	}
	for _, group := range []int{4, 8} {
		group := group
		b.Run(map[int]string{4: "group=4", 8: "group=8"}[group], func(b *testing.B) {
			code, err := crc2d.Encode(vals, rows, cols, group)
			if err != nil {
				b.Fatal(err)
			}
			corrupted := append([]float32(nil), vals...)
			corrupted[137] += 2
			corrupted[5000] -= 1
			b.ReportMetric(float64(code.OverheadBytes()), "crc-bytes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cells, err := code.Locate(corrupted)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(cells)), "suspects")
			}
		})
	}
}

// Detection granularity: MILR's partial-checkpoint detection vs a naive
// full golden-output comparison through the whole network.
func BenchmarkAblation_PartialCheckpointSavings(b *testing.B) {
	env := sharedEnv(b, "tiny")
	b.Run("partial-checkpoints", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := env.Protector.Detect(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-output-compare", func(b *testing.B) {
		golden, err := env.Model.RecoveryForward(env.Test[0].X)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			out, err := env.Model.RecoveryForward(env.Test[0].X)
			if err != nil {
				b.Fatal(err)
			}
			if !out.Equalish(golden, 1e-3) {
				b.Fatal("clean network mismatch")
			}
		}
	})
}

// Selective (CRC-localized) vs full re-solve of a conv layer's filters.
func BenchmarkAblation_SelectiveVsFull(b *testing.B) {
	env := sharedEnv(b, "tiny")
	conv := env.Model.Layer(0).(*nn.Conv2D)
	// Flag every filter of the conv, so recovery re-solves the whole
	// layer instead of the CRC-localized taps.
	all := make([]int, conv.Filters())
	for k := range all {
		all[k] = k
	}
	full := &core.DetectionReport{Findings: []core.LayerFinding{{Layer: 0, Name: conv.Name(), Filters: all}}}
	b.Run("full-resolve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			conv.Params().Data()[1] += 3
			b.StartTimer()
			if _, err := env.Protector.RecoverContext(context.Background(), full); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := env.Reset(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("detect-then-solve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			conv.Params().Data()[1] += 3
			b.StartTimer()
			if _, _, err := env.Protector.SelfHeal(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := env.Reset(); err != nil {
			b.Fatal(err)
		}
	})
}

// --- Batch-first inference: one stacked GEMM per conv/dense layer vs a
// per-sample forward loop over the same 8 samples ---

func batchBenchInputs(b *testing.B, env *bench.Env, n int) []*tensor.Tensor {
	b.Helper()
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = env.Test[i%len(env.Test)].X
	}
	return xs
}

// gomaxprocsWorkers points the shared model's worker count — its GEMM
// pools and the MILR engine protecting it — at GOMAXPROCS for one
// benchmark, so that bench.sh's -cpu sweep changes the worker count and
// not just the scheduler's.
func gomaxprocsWorkers(b *testing.B, env *bench.Env) {
	env.Model.SetWorkers(-1)
	b.Cleanup(func() { env.Model.SetWorkers(0) })
}

func BenchmarkForwardBatch(b *testing.B) {
	env := sharedEnv(b, "mnist")
	gomaxprocsWorkers(b, env)
	xs := batchBenchInputs(b, env, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Model.ForwardBatch(xs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwardBatchCIFARSmall is BenchmarkForwardBatch on
// CIFAR-small: eight convs, six of them Same-padded, so the conv
// kernel's padded taps and per-pixel compaction dominate.
func BenchmarkForwardBatchCIFARSmall(b *testing.B) {
	env := sharedEnv(b, "cifar-small")
	gomaxprocsWorkers(b, env)
	xs := batchBenchInputs(b, env, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Model.ForwardBatch(xs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForwardLoop(b *testing.B) {
	env := sharedEnv(b, "mnist")
	gomaxprocsWorkers(b, env)
	xs := batchBenchInputs(b, env, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			if _, err := env.Model.Forward(x); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMatMulShapes times the five GEMMs one MNIST batch of 8
// issues, on a dense left operand and on one with the half zeros a ReLU
// leaves, at GOMAXPROCS workers. Each product is reached as a Dense
// layer's batched forward over one (m,n) sample — a stacking copy plus
// the GEMM — because the gemmbudget rule keeps bare kernel calls inside
// nn and core. GFLOP/s counts the nominal 2·m·n·p, skipped terms
// included.
func BenchmarkMatMulShapes(b *testing.B) {
	shapes := []struct {
		name    string
		m, n, p int
	}{
		{"conv0", 8 * 676, 9, 32},
		{"conv1", 8 * 576, 288, 32},
		{"conv2", 8 * 100, 288, 64},
		{"dense0", 8, 6400, 256},
		{"dense1", 8, 256, 10},
	}
	for _, sh := range shapes {
		layer, err := nn.NewDense(sh.n, sh.p)
		if err != nil {
			b.Fatal(err)
		}
		m, err := nn.NewModel(tensor.Shape{sh.m, sh.n}, layer)
		if err != nil {
			b.Fatal(err)
		}
		m.InitWeights(42)
		m.SetWorkers(-1)
		for _, zeros := range []int{0, 50} {
			x := prng.New(7).Tensor(sh.m, sh.n)
			if zeros == 50 {
				d := x.Data()
				for i, v := range d {
					if v < 0 {
						d[i] = 0
					}
				}
			}
			b.Run(fmt.Sprintf("%s/zeros=%d%%", sh.name, zeros), func(b *testing.B) {
				xs := []*tensor.Tensor{x}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := layer.ForwardBatch(xs); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(2*float64(sh.m)*float64(sh.n)*float64(sh.p)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// --- Serving: the coalesced closed-loop swarm, tracing off vs on ---

// serverBenchCtx drives 8 closed-loop clients × 8 requests against a
// one-model Fleet per iteration — the single-model serving shape,
// coalescing up to 8 requests per GEMM within a 2 ms window — on the
// given load context, so the tracer-overhead benchmark can run the
// identical swarm with spans recording and without.
func serverBenchCtx(b *testing.B, ctx context.Context) {
	env := sharedEnv(b, "mnist")
	gomaxprocsWorkers(b, env)
	rt := milr.NewRuntime(milr.WithBatchSize(8), milr.WithMaxBatchDelay(2*time.Millisecond))
	fl := milr.NewFleet(rt)
	if err := fl.Register("mnist", env.Model); err != nil {
		b.Fatal(err)
	}
	specs := []bench.FleetLoadSpec{{Model: "mnist", Inputs: batchBenchInputs(b, env, 8), Clients: 8, PerClient: 8}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFleetLoad(ctx, fl, specs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := fl.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(fl.Stats().Models["mnist"].MeanBatchFill, "mean-fill")
}

// BenchmarkTracerOverhead runs the coalesced serving swarm with tracing
// off (the nil-tracer fast path every untraced daemon rides) and on
// (spans recording into a bounded ring). The off variant is the
// coalesced serving baseline; tracing's cost budget against it is <2%
// when disabled — one context lookup per instrumented site. The
// uncoalesced arm is `go run ./cmd/milr-fleet -models mnist -batch 1
// -delay 0`.
func BenchmarkTracerOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		serverBenchCtx(b, context.Background())
	})
	b.Run("on", func(b *testing.B) {
		tracer := obs.New(obs.Config{Seed: 1})
		ctx := obs.WithTracer(context.Background(), tracer, "bench")
		serverBenchCtx(b, ctx)
	})
}

// --- Parallel engine: sharded campaigns vs serial ---

// BenchmarkRBERSweepWorkers times one MILR RBER point on the CIFAR-10
// large network at several campaign worker counts. The sweep's 8 cells
// (2 rates × 4 runs) shard across environment clones; results are
// bit-identical at every count (see internal/bench/shard_test.go), so
// wall-clock is the only thing that moves.
func BenchmarkRBERSweepWorkers(b *testing.B) {
	env := sharedEnv(b, "cifar-large")
	savedRuns := env.Config.Runs
	env.Config.Runs = 4
	defer func() {
		env.Config.Runs = savedRuns
		env.SetWorkers(0)
	}()
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(benchWorkersName(workers), func(b *testing.B) {
			env.SetWorkers(workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := bench.RBERSweep(env, []float64{1e-5, 1e-4}, []bench.Scheme{bench.MILROnly})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Points[0].Stats.Median, "norm-acc")
			}
		})
	}
}

func benchWorkersName(w int) string {
	return fmt.Sprintf("workers=%d", w)
}
