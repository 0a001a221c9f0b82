package milr_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"milr"
	"milr/internal/nn"
)

// TestRuntimeEndToEnd exercises the documented workflow of the redesigned
// API: configure a Runtime with functional options, protect under a
// context, corrupt, self-heal with cancellation support.
func TestRuntimeEndToEnd(t *testing.T) {
	ctx := context.Background()
	rt := milr.NewRuntime(milr.WithSeed(42), milr.WithWorkers(2))
	if rt.Seed() != 42 || rt.Workers() != 2 {
		t.Fatalf("runtime config not applied: seed=%d workers=%d", rt.Seed(), rt.Workers())
	}
	model, err := milr.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(42)
	prot, err := rt.Protect(ctx, model)
	if err != nil {
		t.Fatal(err)
	}
	var target milr.Parameterized
	for _, l := range model.Layers() {
		if p, ok := l.(milr.Parameterized); ok {
			target = p
			break
		}
	}
	d := target.Params().Data()
	orig := d[2]
	d[2] = math.Float32frombits(^math.Float32bits(d[2]))
	det, rec, err := prot.SelfHealContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !det.HasErrors() {
		t.Fatal("corruption undetected")
	}
	if !rec.AllRecovered() {
		t.Fatalf("not recovered: %+v", rec.Results)
	}
	if diff := math.Abs(float64(d[2] - orig)); diff > 1e-4 {
		t.Fatalf("weight off by %g after self-heal", diff)
	}
}

// TestRuntimeProtectCancelled pins prompt cancellation of the
// initialization phase through the façade.
func TestRuntimeProtectCancelled(t *testing.T) {
	model, err := milr.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := milr.NewRuntime(milr.WithSeed(9)).Protect(ctx, model); !errors.Is(err, context.Canceled) {
		t.Fatalf("Protect under cancelled context returned %v, want context.Canceled", err)
	}
}

// TestRuntimeProtectCancelledKeepsModelWorkers: Protect sets an explicit
// worker policy on the model before initialization, so that protect
// runs on the pool; a failed Protect puts the model's own count back,
// the one its GEMM layers read.
func TestRuntimeProtectCancelledKeepsModelWorkers(t *testing.T) {
	model, err := milr.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(9)
	model.SetWorkers(8) // hand-tuned
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := milr.NewRuntime(milr.WithSeed(9), milr.WithWorkers(3)).Protect(ctx, model); !errors.Is(err, context.Canceled) {
		t.Fatalf("Protect under cancelled context returned %v, want context.Canceled", err)
	}
	if got := model.Workers(); got != 8 {
		t.Errorf("failed Protect left the model at %d workers, want 8", got)
	}
}

// TestRuntimeSelfHealContextCancelled: a cancelled self-heal returns
// promptly and leaves the corrupted weights bit-identical (detect-only
// state) — the façade half of the layer-atomicity contract pinned in
// internal/core's cancellation tests.
func TestRuntimeSelfHealContextCancelled(t *testing.T) {
	ctx := context.Background()
	model, err := milr.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(5)
	rt := milr.NewRuntime(milr.WithSeed(5))
	prot, err := rt.Protect(ctx, model)
	if err != nil {
		t.Fatal(err)
	}
	var target milr.Parameterized
	for _, l := range model.Layers() {
		if p, ok := l.(milr.Parameterized); ok {
			target = p
			break
		}
	}
	target.Params().Data()[0] += 30
	snap := model.Snapshot()
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	start := time.Now()
	if _, _, err := prot.SelfHealContext(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("SelfHealContext returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled self-heal took %v, want prompt return", elapsed)
	}
	for li, wt := range snap {
		gd := model.Layer(li).(milr.Parameterized).Params().Data()
		for i, w := range wt.Data() {
			if gd[i] != w {
				t.Fatalf("layer %d weight %d changed under a cancelled context", li, i)
			}
		}
	}
	// The uncancelled cycle still heals.
	_, rec, err := prot.SelfHealContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.AllRecovered() {
		t.Fatalf("follow-up self-heal failed: %+v", rec.Results)
	}
}

// TestRuntimeEvaluateMatchesDeprecated: the batched Runtime.Evaluate
// agrees exactly, at several batch sizes, with nn.Evaluate, the
// default-batch evaluator underneath it (the batch path is
// bit-identical).
func TestRuntimeEvaluateMatchesDeprecated(t *testing.T) {
	ctx := context.Background()
	model, err := milr.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(13)
	var samples []milr.Sample
	for c := 0; c < 9; c++ {
		x := milr.NewTensor(12, 12, 1)
		d := x.Data()
		for i := range d {
			if i%4 == c%4 {
				d[i] = 1
			}
		}
		samples = append(samples, milr.Sample{X: x, Label: c % 4})
	}
	want, err := nn.Evaluate(model, samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 2, 8} {
		got, err := milr.NewRuntime(milr.WithBatchSize(batch)).Evaluate(ctx, model, samples)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("batch=%d: accuracy %v, want %v", batch, got, want)
		}
	}
}

// TestRuntimeWorkerPolicyPropagation: an explicit WithWorkers retunes
// the model's GEMM pools through Protect and Evaluate; a runtime built
// without a worker policy leaves a hand-tuned model alone.
func TestRuntimeWorkerPolicyPropagation(t *testing.T) {
	ctx := context.Background()
	model, err := milr.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(21)
	model.SetWorkers(8) // hand-tuned
	if _, err := milr.NewRuntime(milr.WithSeed(21)).Protect(ctx, model); err != nil {
		t.Fatal(err)
	}
	if got := model.Workers(); got != 8 {
		t.Errorf("runtime without worker policy reset model workers to %d, want 8 untouched", got)
	}
	if _, err := milr.NewRuntime(milr.WithSeed(21), milr.WithWorkers(3)).Protect(ctx, model); err != nil {
		t.Fatal(err)
	}
	if got := model.Workers(); got != 3 {
		t.Errorf("WithWorkers(3) not propagated through Protect: got %d", got)
	}
	samples := []milr.Sample{{X: milr.NewTensor(12, 12, 1), Label: 0}}
	if _, err := milr.NewRuntime(milr.WithWorkers(2)).Evaluate(ctx, model, samples); err != nil {
		t.Fatal(err)
	}
	if got := model.Workers(); got != 2 {
		t.Errorf("WithWorkers(2) not propagated through Evaluate: got %d", got)
	}
	model.SetWorkers(0)
}

// TestRuntimeWithDerivation: With derives a tweaked runtime without
// mutating the receiver.
func TestRuntimeWithDerivation(t *testing.T) {
	base := milr.NewRuntime(milr.WithSeed(1), milr.WithWorkers(2))
	derived := base.With(milr.WithWorkers(4), milr.WithBatchSize(16))
	if base.Workers() != 2 || base.Seed() != 1 {
		t.Fatalf("base runtime mutated: %+v", base.Options())
	}
	if derived.Workers() != 4 || derived.Seed() != 1 || derived.BatchSize() != 16 {
		t.Fatalf("derivation wrong: workers=%d seed=%d batch=%d",
			derived.Workers(), derived.Seed(), derived.BatchSize())
	}
}
