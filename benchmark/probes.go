package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"

	"milr"
	"milr/internal/crc2d"
	"milr/internal/faults"
	"milr/internal/gateway"
	"milr/internal/linalg"
	"milr/internal/nn"
	"milr/internal/prng"
	"milr/internal/tensor"
)

// The direct layer probes: each calls one layer the way the system
// calls it, on inputs made from the workload seed, with nothing else
// running. They are the same on every workload, so every traced pass
// carries the full per-layer table. Kernels are reached through the
// nn layer operations (the repository's gemmbudget rule keeps direct
// tensor.MatMul/Im2Col calls inside nn and core): a Dense layer's
// batched forward is one stacking copy plus one GEMM, Conv2D.Lower is
// the padding plus im2col.
//
// Repetitions follow -seconds, so that a smoke-scale run stays short:
// reps calls of each cheap probe (10 from 10 s up), healReps
// of each protect, factorisation and heal (3).
type probes struct {
	rec      *recorder
	lm       *metricSet
	st       *prng.Stream // probe inputs
	seed     uint64       // fault positions
	reps     int
	healReps int
}

// runProbes runs every probe and adds its metrics to lm. Each probed
// call is recorded as a span of the benchmark's own list.
func runProbes(ctx context.Context, seed uint64, seconds float64, rec *recorder, lm *metricSet) error {
	p := &probes{rec: rec, lm: lm, st: prng.New(seed ^ 0x70726f6265), seed: seed, // "probe"
		reps: min(max(int(seconds), 1), 10), healReps: min(max(int(seconds/3), 1), 3)}
	if err := p.gateway(ctx); err != nil {
		return err
	}
	if err := p.forward(ctx); err != nil {
		return err
	}
	if err := p.kernels(); err != nil {
		return err
	}
	if err := p.solvers(); err != nil {
		return err
	}
	return p.engine(ctx)
}

// nullBackend answers every predict at once: what is left of a request
// is the gateway's own decode, validate and encode.
type nullBackend struct {
	models []milr.ModelInfo
}

func (nullBackend) Predict(context.Context, string, *milr.Tensor) (int, error) { return 0, nil }
func (nullBackend) PredictBatch(_ context.Context, _ string, xs []*milr.Tensor) ([]int, error) {
	return make([]int, len(xs)), nil
}
func (nullBackend) Stats() milr.FleetStats     { return milr.FleetStats{} }
func (b nullBackend) Models() []milr.ModelInfo { return b.models }

// gateway times the gateway handler over a null backend, per body
// size: gateway.null_backend_us.{tiny,mnist,cifar}.
func (p *probes) gateway(ctx context.Context) error {
	shapes := []struct {
		name  string
		shape milr.Shape
	}{{"tiny", milr.Shape{12, 12, 1}}, {"mnist", milr.Shape{28, 28, 1}}, {"cifar", milr.Shape{32, 32, 3}}}
	var nb nullBackend
	for _, s := range shapes {
		nb.models = append(nb.models, milr.ModelInfo{Name: s.name, InShape: s.shape})
	}
	gw := gateway.New(nb, gateway.Config{MaxDeadline: maxDeadline})
	for _, s := range shapes {
		body, err := json.Marshal(map[string][]float64{"input": widen(p.st.Tensor(s.shape...).Data())})
		if err != nil {
			return fmt.Errorf("gateway probe body: %w", err)
		}
		var samples []float64
		for i := 0; i < 20*p.reps; i++ {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/models/"+s.name+"/predict", bytes.NewReader(body))
			if err != nil {
				return fmt.Errorf("gateway probe request: %w", err)
			}
			w := httptest.NewRecorder()
			d := p.rec.timed("probe.gateway.null_backend."+s.name, func() { gw.ServeHTTP(w, req) })
			if w.Code != http.StatusOK {
				return fmt.Errorf("gateway probe: null backend answered %d", w.Code)
			}
			samples = append(samples, us(d))
		}
		p.lm.putTimes("gateway.null_backend_us."+s.name, samples, "us")
	}
	return nil
}

// forward times Model.ForwardBatchContext on 1 and 8 MNIST samples
// and counts what a batch of 8 allocates.
func (p *probes) forward(ctx context.Context) error {
	m, err := milr.NewMNISTNet()
	if err != nil {
		return fmt.Errorf("forward probe: %w", err)
	}
	m.InitWeights(weightSeed)
	m.SetWorkers(fleetWorkers)
	xs := make([]*milr.Tensor, fleetBatch)
	for i := range xs {
		xs[i] = p.st.Tensor(m.InShape()...)
	}
	for _, b := range []struct {
		name string
		xs   []*milr.Tensor
	}{{"nn.forward_b1_ms", xs[:1]}, {"nn.forward_b8_ms", xs}} {
		var samples []float64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < p.reps; i++ {
			var ferr error
			d := p.rec.timed("probe."+b.name, func() { _, ferr = m.ForwardBatchContext(ctx, b.xs) })
			if ferr != nil {
				return fmt.Errorf("forward probe: %w", ferr)
			}
			samples = append(samples, ms(d))
		}
		runtime.ReadMemStats(&m1)
		p.lm.putTimes(b.name, samples, "ms")
		if len(b.xs) == fleetBatch {
			p.lm.put("nn.forward_b8_alloc_kb", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(p.reps), "KB", p.reps)
		}
	}
	return nil
}

// oneLayer wraps a single layer in a model so that its shapes, weights
// and worker pool are set the way the zoo models set them.
func oneLayer(in milr.Shape, l nn.Layer) error {
	m, err := nn.NewModel(in, l)
	if err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}
	m.InitWeights(weightSeed)
	m.SetWorkers(fleetWorkers)
	return nil
}

// kernels times the tensor kernels at the shapes MNIST serving
// uses at batch 8, through the layer operations that call them.
func (p *probes) kernels() error {
	batch := func(shape ...int) []*milr.Tensor {
		xs := make([]*milr.Tensor, fleetBatch)
		for i := range xs {
			xs[i] = p.st.Tensor(shape...)
		}
		return xs
	}
	// MNIST's second convolution: 3×3 over 26×26×32 into 32 filters, so
	// im2col gives G²=576 rows of F²Z=288 per sample.
	conv, err := nn.NewConv2D(3, 32, 32, 1, nn.Valid)
	if err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}
	if err := oneLayer(milr.Shape{26, 26, 32}, conv); err != nil {
		return err
	}
	convIn := batch(26, 26, 32)
	// The same product without the im2col: (8·576 × 288)·(288 × 32).
	convGEMM, err := nn.NewDense(288, 32)
	if err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}
	if err := oneLayer(milr.Shape{576, 288}, convGEMM); err != nil {
		return err
	}
	convGEMMIn := batch(576, 288)
	// MNIST's large dense layer at batch 8: (8 × 6400)·(6400 × 256).
	dense, err := nn.NewDense(6400, 256)
	if err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}
	if err := oneLayer(milr.Shape{1, 6400}, dense); err != nil {
		return err
	}
	denseIn := batch(1, 6400)

	kernels := []struct {
		name string
		run  func() error
	}{
		{"tensor.conv_layer_ms", func() error { _, err := conv.ForwardBatch(convIn); return err }},
		{"tensor.im2col_ms", func() error {
			for _, x := range convIn {
				if _, err := conv.Lower(x); err != nil {
					return err
				}
			}
			return nil
		}},
		{"tensor.matmul_conv_ms", func() error { _, err := convGEMM.ForwardBatch(convGEMMIn); return err }},
		{"tensor.matmul_dense_ms", func() error { _, err := dense.ForwardBatch(denseIn); return err }},
	}
	for _, k := range kernels {
		var samples []float64
		for i := 0; i < p.reps; i++ {
			var kerr error
			d := p.rec.timed("probe."+k.name, func() { kerr = k.run() })
			if kerr != nil {
				return fmt.Errorf("kernel probe %s: %w", k.name, kerr)
			}
			samples = append(samples, ms(d))
		}
		p.lm.putTimes(k.name, samples, "ms")
		if k.name == "tensor.matmul_conv_ms" {
			// Computed, not measured: 2·m·n·p floating-point operations.
			flop := 2.0 * fleetBatch * 576 * 288 * 32
			p.lm.put("tensor.matmul_conv_gflops", ratio(flop/1e9, median(samples)/1e3), "GFLOP/s", len(samples))
		}
	}
	return nil
}

// solvers times the least-squares solve of MNIST's second
// convolution (a 576×288 system, one right-hand side per filter) and a
// 2-D CRC localisation on a table of that layer's shape with two bad
// cells.
func (p *probes) solvers() error {
	const rows, cols, filters = 576, 288, 32
	a := linalg.NewMatrix(rows, cols)
	for i := range a.Data {
		a.Data[i] = float64(p.st.Uniform(-1, 1))
	}
	rhs := make([][]float64, filters)
	for i := range rhs {
		rhs[i] = make([]float64, rows)
		for j := range rhs[i] {
			rhs[i][j] = float64(p.st.Uniform(-1, 1))
		}
	}
	var factor, solve []float64
	for i := 0; i < p.healReps; i++ {
		var qr *linalg.QR
		var err error
		factor = append(factor, ms(p.rec.timed("probe.linalg.qr_factor", func() { qr, err = linalg.FactorQR(a) })))
		if err != nil {
			return fmt.Errorf("solver probe: %w", err)
		}
		solve = append(solve, ms(p.rec.timed("probe.linalg.qr_solve_many", func() { _, err = qr.SolveMany(rhs, fleetWorkers) })))
		if err != nil {
			return fmt.Errorf("solver probe: %w", err)
		}
	}
	p.lm.putTimes("linalg.qr_factor_ms", factor, "ms")
	p.lm.putTimes("linalg.qr_solve_many_ms", solve, "ms")

	values := p.st.Tensor(cols, filters).Data()
	code, err := crc2d.Encode(values, cols, filters, crc2d.DefaultGroup)
	if err != nil {
		return fmt.Errorf("crc2d probe: %w", err)
	}
	values[p.st.Intn(len(values)/2)] += 1
	values[len(values)/2+p.st.Intn(len(values)/2)] += 1
	var locate []float64
	for i := 0; i < p.reps; i++ {
		var cells []crc2d.Cell
		locate = append(locate, us(p.rec.timed("probe.crc2d.locate", func() { cells, err = code.Locate(values) })))
		if err != nil {
			return fmt.Errorf("crc2d probe: %w", err)
		}
		if len(cells) < 2 {
			return fmt.Errorf("crc2d probe: located %d cells, corrupted 2", len(cells))
		}
	}
	p.lm.putTimes("crc2d.locate_us", locate, "us")
	return nil
}

// engine times the MILR engine directly: Protect and a clean
// DetectContext on both protected networks, and for every heal
// workload's fault class the RecoverContext that follows a detection,
// with what it allocates, how many GEMMs detection plus recovery issue,
// and how many layers were flagged and verified recovered.
func (p *probes) engine(ctx context.Context) error {
	engines := map[string]*env{}
	for _, network := range []string{"mnist", "cifar-small"} {
		var protect []float64
		var pe *env
		for i := 0; i < p.healReps; i++ {
			m, err := builders[network]()
			if err != nil {
				return fmt.Errorf("engine probe: %w", err)
			}
			m.InitWeights(weightSeed)
			pe = &env{rt: newRuntime(), model: m}
			protect = append(protect, ms(p.rec.timed("probe.core.protect."+network, func() { pe.prot, err = pe.rt.Protect(ctx, m) })))
			if err != nil {
				return fmt.Errorf("engine probe: protect %s: %w", network, err)
			}
		}
		pe.prot.Sync(func() { pe.clean = pe.model.Snapshot() })
		engines[network] = pe
		p.lm.putTimes("core.protect_ms."+network, protect, "ms")

		var detect []float64
		g0 := tensor.GEMMCalls()
		for i := 0; i < p.reps; i++ {
			var det *milr.DetectionReport
			var err error
			detect = append(detect, ms(p.rec.timed("probe.core.detect."+network, func() { det, err = pe.prot.DetectContext(ctx) })))
			if err != nil {
				return fmt.Errorf("engine probe: detect %s: %w", network, err)
			}
			if det.HasErrors() {
				return fmt.Errorf("engine probe: clean %s flagged layers %v", network, det.Erroneous())
			}
		}
		p.lm.putTimes("core.detect_ms."+network, detect, "ms")
		p.lm.put("core.gemm_calls_per_scrub."+network, float64(tensor.GEMMCalls()-g0)/float64(p.reps), "count", p.reps)
	}

	for _, wl := range healClasses {
		class := strings.TrimPrefix(wl.name, "heal-")
		pe := engines[wl.network]
		pe.wl = wl
		var recoverMS, allocMB, gemms, flagged, recovered []float64
		for i := 0; i < p.healReps; i++ {
			pe.injectFault(faults.New(subSeed(p.seed, i)))
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			g0 := tensor.GEMMCalls()
			det, err := pe.prot.DetectContext(ctx)
			if err != nil {
				return fmt.Errorf("engine probe: detect %s: %w", class, err)
			}
			var rr *milr.RecoveryReport
			d := p.rec.timed("probe.core.recover."+class, func() { rr, err = pe.prot.RecoverContext(ctx, det) })
			if err != nil {
				return fmt.Errorf("engine probe: recover %s: %w", class, err)
			}
			runtime.ReadMemStats(&m1)
			ok := 0
			for _, r := range rr.Results {
				if r.Status == milr.Recovered {
					ok++
				}
			}
			recoverMS = append(recoverMS, ms(d))
			allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			gemms = append(gemms, float64(tensor.GEMMCalls()-g0))
			flagged = append(flagged, float64(len(det.Findings)))
			recovered = append(recovered, float64(ok))
			if err := pe.restoreClean(); err != nil {
				return err
			}
		}
		p.lm.putTimes("core.recover_ms."+class, recoverMS, "ms")
		p.lm.put("core.heal_alloc_mb."+class, median(allocMB), "MB", p.healReps)
		p.lm.put("core.gemm_calls_per_heal."+class, median(gemms), "count", p.healReps)
		p.lm.put("core.layers_flagged."+class, median(flagged), "count", p.healReps)
		p.lm.put("core.layers_recovered."+class, median(recovered), "count", p.healReps)
	}
	return nil
}
