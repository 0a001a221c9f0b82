package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"milr/internal/nn"
	"milr/internal/tensor"
)

// Context plumbing: cancelled contexts make every long-running engine
// phase return promptly, and cancellation is layer-atomic — the model is
// always left in a consistent state (each layer untouched or fully
// re-solved), never half-written.

func buildProtected(t *testing.T, seed uint64, workers int) (*nn.Model, *Protector) {
	t.Helper()
	m, err := nn.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(seed)
	m.SetWorkers(workers)
	pr, err := NewProtector(m, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m, pr
}

func TestNewProtectorContextCancelled(t *testing.T) {
	m, err := nn.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewProtectorContext(ctx, m, Options{Seed: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("initialization under a cancelled context returned %v, want context.Canceled", err)
	}
}

func TestDetectContextCancelled(t *testing.T) {
	_, pr := buildProtected(t, 5, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pr.DetectContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("DetectContext under a cancelled context returned %v, want context.Canceled", err)
	}
	// The engine is unharmed: a normal pass still works.
	rep, err := pr.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasErrors() {
		t.Fatalf("clean network flagged after aborted detect: %+v", rep.Findings)
	}
}

// stepCtx is a context whose Err starts returning context.Canceled after
// `limit` calls — a deterministic way to land a cancellation at an exact
// point of the engine's between-layers checks.
type stepCtx struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *stepCtx) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

func TestSelfHealContextCancelMidRecoveryIsLayerAtomic(t *testing.T) {
	m, pr := buildProtected(t, 7, 0)
	clean := m.Snapshot()

	// Corrupt one layer per checkpoint segment — the first conv and every
	// dense layer (each dense sits in its own segment in TinyNet) — so
	// each recovery is exact and the only variable is where cancellation
	// lands. Multiple corrupted layers in one segment would degrade each
	// other's golden tensors (the paper's §V-B outlier mechanism) and
	// muddy the layer-atomicity check.
	var corrupted []int
	seenConv := false
	for i, l := range m.Layers() {
		switch l.(type) {
		case *nn.Conv2D:
			if seenConv {
				continue
			}
			seenConv = true
		case *nn.Dense:
		default:
			continue
		}
		l.(nn.Parameterized).Params().Data()[0] += 40
		corrupted = append(corrupted, i)
	}
	if len(corrupted) < 3 {
		t.Fatalf("need ≥ 3 corrupted segments, got %d", len(corrupted))
	}
	corruptedSnap := m.Snapshot()

	// Detection checks the context once per layer; recovery once per
	// flagged layer. Allow detection plus exactly one recovery step.
	ctx := &stepCtx{Context: context.Background(), limit: int64(m.NumLayers()) + 1}
	det, _, err := pr.SelfHealContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SelfHealContext returned %v, want context.Canceled", err)
	}
	if det == nil || len(det.Findings) != len(corrupted) {
		t.Fatalf("detection before cancellation flagged %+v, want %d layers", det, len(corrupted))
	}

	// Consistency: every layer is either bit-identical to its corrupted
	// state (untouched) or verifies clean against its partial checkpoint
	// (fully re-solved). Nothing in between.
	rep, err := pr.Detect()
	if err != nil {
		t.Fatal(err)
	}
	stillFlagged := map[int]bool{}
	for _, f := range rep.Findings {
		stillFlagged[f.Layer] = true
	}
	recovered := 0
	for _, li := range corrupted {
		got := m.Layer(li).(nn.Parameterized).Params().Data()
		want := corruptedSnap[li].Data()
		untouched := true
		for i := range want {
			if got[i] != want[i] {
				untouched = false
				break
			}
		}
		switch {
		case untouched && !stillFlagged[li]:
			t.Errorf("layer %d untouched but no longer flagged", li)
		case !untouched && stillFlagged[li]:
			t.Errorf("layer %d modified by the cancelled cycle yet still flagged — inconsistent state", li)
		case !untouched:
			recovered++
		}
	}
	if recovered != 1 {
		t.Errorf("cancelled cycle recovered %d layers, want exactly 1 (one step before cancellation)", recovered)
	}

	// A later, uncancelled cycle finishes the job.
	_, rec, err := pr.SelfHeal()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.AllRecovered() {
		t.Fatalf("follow-up self-heal did not recover: %+v", rec.Results)
	}
	for li, wt := range clean {
		gd, wd := m.Layer(li).(nn.Parameterized).Params().Data(), wt.Data()
		for i := range wd {
			d := float64(gd[i] - wd[i])
			if d < -1e-3 || d > 1e-3 {
				t.Fatalf("layer %d weight %d off by %v after follow-up heal", li, i, d)
			}
		}
	}
}

// TestParallelInitEquivalence pins the parallel initialization path:
// every stored artifact — boundary checkpoints, partial checkpoints,
// dummy outputs, CRC codes, bias sums, solver-mode flags — must be
// bit-identical to the serial initializer's at any worker count.
func TestParallelInitEquivalence(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() (*nn.Model, error)
	}{
		{"tiny", nn.NewTinyNet},
		{"tiny-partial", nn.NewTinyPartialNet},
	} {
		t.Run(c.name, func(t *testing.T) {
			build := func(workers int) *Protector {
				m, err := c.build()
				if err != nil {
					t.Fatal(err)
				}
				m.InitWeights(23)
				m.SetWorkers(workers)
				pr, err := NewProtector(m, Options{Seed: 23})
				if err != nil {
					t.Fatal(err)
				}
				return pr
			}
			want := build(0)
			for _, workers := range equivWorkerCounts() {
				got := build(workers)
				comparePlans(t, workers, want.plan, got.plan)
			}
		})
	}
}

func comparePlans(t *testing.T, workers int, want, got *plan) {
	t.Helper()
	if len(want.stored) != len(got.stored) {
		t.Fatalf("workers=%d: %d stored boundaries, want %d", workers, len(got.stored), len(want.stored))
	}
	for b, wt := range want.stored {
		gt, ok := got.stored[b]
		if !ok {
			t.Fatalf("workers=%d: boundary %d missing", workers, b)
		}
		wd, gd := wt.Data(), gt.Data()
		for i := range wd {
			if wd[i] != gd[i] {
				t.Fatalf("workers=%d: boundary %d element %d differs", workers, b, i)
			}
		}
	}
	for i, wlp := range want.layers {
		glp := got.layers[i]
		if wlp.partialMode != glp.partialMode {
			t.Errorf("workers=%d: layer %d partial mode %v, want %v", workers, i, glp.partialMode, wlp.partialMode)
		}
		if wlp.biasSum != glp.biasSum {
			t.Errorf("workers=%d: layer %d bias sum %v, want %v", workers, i, glp.biasSum, wlp.biasSum)
		}
		compareTensors(t, workers, i, "partial", wlp.partial, glp.partial)
		compareTensors(t, workers, i, "dummyOut", wlp.dummyOut, glp.dummyOut)
		compareTensors(t, workers, i, "denseDummyOut", wlp.denseDummyOut, glp.denseDummyOut)
		if len(wlp.crcs) != len(glp.crcs) {
			t.Fatalf("workers=%d: layer %d has %d CRC codes, want %d", workers, i, len(glp.crcs), len(wlp.crcs))
		}
		for j := range wlp.crcs {
			wr, wc, wg, wrow, wcol := wlp.crcs[j].Export()
			gr, gc, gg, grow, gcol := glp.crcs[j].Export()
			if wr != gr || wc != gc || wg != gg {
				t.Fatalf("workers=%d: layer %d CRC %d geometry differs", workers, i, j)
			}
			for k := range wrow {
				if wrow[k] != grow[k] {
					t.Fatalf("workers=%d: layer %d CRC %d row byte %d differs", workers, i, j, k)
				}
			}
			for k := range wcol {
				if wcol[k] != gcol[k] {
					t.Fatalf("workers=%d: layer %d CRC %d col byte %d differs", workers, i, j, k)
				}
			}
		}
	}
}

func compareTensors(t *testing.T, workers, layer int, label string, want, got *tensor.Tensor) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("workers=%d: layer %d %s present=%v, want %v", workers, layer, label, got != nil, want != nil)
	}
	if want == nil {
		return
	}
	wd, gd := want.Data(), got.Data()
	if len(wd) != len(gd) {
		t.Fatalf("workers=%d: layer %d %s length %d, want %d", workers, layer, label, len(gd), len(wd))
	}
	for i := range wd {
		if wd[i] != gd[i] {
			t.Fatalf("workers=%d: layer %d %s element %d differs: %v vs %v",
				workers, layer, label, i, gd[i], wd[i])
		}
	}
}
