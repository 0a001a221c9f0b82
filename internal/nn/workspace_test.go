package nn_test

import (
	"context"
	"math"
	"runtime"
	"testing"

	"milr/internal/core"
	"milr/internal/nn"
	"milr/internal/par"
	"milr/internal/prng"
	"milr/internal/tensor"
)

func mnistBatch(t testing.TB, b int) (*nn.Model, []*tensor.Tensor) {
	t.Helper()
	m, err := nn.NewMNISTNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(42)
	xs := make([]*tensor.Tensor, b)
	for i := range xs {
		xs[i] = prng.TensorFor(uint64(i)+1, 0xba7c4, m.InShape()...)
	}
	return m, xs
}

// TestPredictBatchSteadyStateAllocations pins the workspace's point: a
// warm PredictBatchContext on MNIST at B=8 (untraced, serial pools)
// allocates a handful of closures and its result slice — a count and a
// byte total that do not depend on the layer sizes, against the 12.8 MB
// a batch allocated before the workspace existed. A warm single-sample
// Predict is the same pass at B=1 and meets the same bound; the
// materialised im2col it once lowered through cost 1.67 MB a call.
func TestPredictBatchSteadyStateAllocations(t *testing.T) {
	m, xs := mnistBatch(t, 8)
	ctx := context.Background()
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"PredictBatchContext", func() error { _, err := m.PredictBatchContext(ctx, xs); return err }},
		{"Predict", func() error { _, err := m.Predict(xs[0]); return err }},
	} {
		predict := func() {
			if err := c.call(); err != nil {
				t.Fatal(err)
			}
		}
		predict() // sizes the workspace
		allocs, bytes := warmAllocs(predict)
		t.Logf("warm %s: %.0f allocations, %.0f bytes per call", c.name, allocs, bytes)
		if allocs > 64 {
			t.Errorf("warm %s made %.0f allocations per call, want at most 64", c.name, allocs)
		}
		if bytes > 8<<10 {
			t.Errorf("warm %s allocated %.0f bytes per call, want at most 8 KB", c.name, bytes)
		}
	}
}

// TestForwardRangeAllocatesOnlyItsResult pins golden propagation to
// the model's pooled pass: after one warm call, a recovery ForwardRange
// over one conv or dense layer of MNIST or CIFAR-small allocates the
// tensor it returns (as many bytes as tensor.New of its shape) and a
// few fixed-size headers, and no workspace of its own.
func TestForwardRangeAllocatesOnlyItsResult(t *testing.T) {
	for _, build := range []func() (*nn.Model, error){nn.NewMNISTNet, nn.NewCIFARSmallNet} {
		m, err := build()
		if err != nil {
			t.Fatal(err)
		}
		m.InitWeights(42)
		for i, l := range m.Layers() {
			switch l.(type) {
			case *nn.Conv2D, *nn.Dense:
			default:
				continue
			}
			x := prng.TensorFor(uint64(i)+1, 0xf0a1, m.LayerInShape(i)...)
			forward := func() {
				if _, err := m.ForwardRange(i, i+1, x, true); err != nil {
					t.Fatal(err)
				}
			}
			forward() // sizes the workspace
			allocs, bytes := warmAllocs(forward)
			_, result := warmAllocs(func() { tensor.New(m.LayerInShape(i + 1)...) })
			t.Logf("warm ForwardRange over %s: %.0f allocations, %.0f bytes per call for a %.0f-byte result", l.Name(), allocs, bytes, result)
			if allocs > 16 {
				t.Errorf("warm ForwardRange over %s made %.0f allocations per call, want at most 16", l.Name(), allocs)
			}
			if bytes > result+1<<10 {
				t.Errorf("warm ForwardRange over %s allocated %.0f bytes per call, want its %.0f-byte result and at most 1 KB more", l.Name(), bytes, result)
			}
		}
	}
}

// warmAllocs returns the allocations and bytes one call of f makes.
func warmAllocs(f func()) (allocs, bytes float64) {
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, f)
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls f runs+1 times.
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
}

// TestForwardBatchConcurrentCallers runs two goroutines through one
// model at once (the race detector watches the workspaces) and checks
// that each gets logits bit-identical to a serial call's.
func TestForwardBatchConcurrentCallers(t *testing.T) {
	m, xs := mnistBatch(t, 4)
	m.SetWorkers(2)
	batches := [][]*tensor.Tensor{xs[:2], xs[2:]}
	want := make([][]*tensor.Tensor, len(batches))
	for i, b := range batches {
		var err error
		if want[i], err = m.ForwardBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 6
	errs := make([]error, len(batches))
	got := make([][][]*tensor.Tensor, len(batches))
	par.For(len(batches), len(batches), func(i int) {
		for r := 0; r < rounds; r++ {
			outs, err := m.ForwardBatch(batches[i])
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = append(got[i], outs)
		}
	})
	for i := range batches {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		for r, outs := range got[i] {
			for s := range outs {
				assertSameBits(t, outs[s], want[i][s], "caller %d round %d sample %d", i, r, s)
			}
		}
	}
}

func assertSameBits(t *testing.T, got, want *tensor.Tensor, format string, args ...any) {
	t.Helper()
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf(format+": shape %v, want %v", append(args, got.Shape(), want.Shape())...)
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf(format+": element %d = %v, want %v", append(args, i, g, w)...)
		}
	}
}

// TestWorkspaceKeepsNothingDerivedFromWeights is the fault-visibility
// contract. After warm forwards a single bit of a convolution weight is
// flipped under Protector.Sync. The very next batched forward must
// compute with the flipped weight — its logits equal a second model's,
// built with the same flip and never run before, and differ from the
// clean ones — and the very next scrub must flag the layer; recovery
// then restores the weight. A workspace that kept a packed or widened
// copy of the filter matrix across calls would fail the first two.
func TestWorkspaceKeepsNothingDerivedFromWeights(t *testing.T) {
	m, xs := mnistBatch(t, 8)
	pr, err := core.NewProtector(m, core.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var clean []*tensor.Tensor
	for warm := 0; warm < 2; warm++ {
		if clean, err = m.ForwardBatch(xs); err != nil {
			t.Fatal(err)
		}
	}

	const convLayer, weight = 3, 1234 // the 3×3×32×32 convolution
	conv := m.Layer(convLayer).(*nn.Conv2D)
	var original, flipped float32
	pr.Sync(func() {
		w := conv.Params().Data()
		original = w[weight]
		// Bit 30, the exponent's top bit: the fault class the paper
		// singles out, since it turns a small weight into a huge one.
		flipped = math.Float32frombits(math.Float32bits(original) ^ 1<<30)
		w[weight] = flipped
	})

	faulty, err := m.ForwardBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := mnistBatch(t, 0)
	fresh.Layer(convLayer).(*nn.Conv2D).Params().Data()[weight] = flipped
	want, err := fresh.ForwardBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for s := range faulty {
		assertSameBits(t, faulty[s], want[s], "sample %d after the flip", s)
		for i, v := range faulty[s].Data() {
			moved = moved || math.Float32bits(v) != math.Float32bits(clean[s].Data()[i])
		}
	}
	if !moved {
		t.Error("the flipped weight left every logit unchanged: the forward pass did not read it")
	}

	report, err := pr.DetectContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	flagged := false
	for _, f := range report.Findings {
		flagged = flagged || f.Layer == convLayer
	}
	if !flagged {
		t.Fatalf("scrub after the flip did not flag layer %d: %+v", convLayer, report.Findings)
	}
	if _, err := pr.RecoverContext(context.Background(), report); err != nil {
		t.Fatal(err)
	}
	var healed float32
	pr.Sync(func() { healed = conv.Params().Data()[weight] })
	if math.Abs(float64(healed-original)) > 1e-3 {
		t.Errorf("weight after recovery = %v, want %v restored", healed, original)
	}
}
