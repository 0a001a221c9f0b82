package core

import (
	"reflect"
	"testing"

	"milr/internal/faults"
	"milr/internal/nn"
	"milr/internal/tensor"
)

// Tests for the batched (segment-sweep) recovery pipeline: bit-identity
// against the per-layer oracle (recover_oracle_test.go), and the
// pipeline's cost contract — at most one propagation GEMM per conv/dense
// layer per checkpoint segment plus its one-row verification probe,
// enforced through the kernel-invocation counter.

// TestBatchedSequentialRecoveryEquivalence pins the batched pipeline
// bit-identical to the per-layer oracle: for identical corruption, the
// detection report, the recovery report, and every recovered weight bit
// must match selfHealOracle's at workers 1 and 4.
func TestBatchedSequentialRecoveryEquivalence(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() (*nn.Model, error)
		opts  func(Options) Options
		// weightSeed initialises the model, seed the protector; flips
		// exact bit flips come from an injector seeded injSeed.
		weightSeed, seed, injSeed uint64
		flips                     int
	}{
		// 96 flips spread errors over several layers, so segments with
		// multiple flagged layers (conv+bias) are exercised.
		{"tiny", nn.NewTinyNet, nil, 31, 31, 9001, 96},
		{"tiny-partial", nn.NewTinyPartialNet, nil, 31, 31, 9001, 96},
		{"mnist", nn.NewMNISTNet, nil, 31, 31, 9001, 96},
		// All convs forced into partial mode: the CRC-localized selective
		// solver plus its pre-solve probe, inside the sweep.
		{"mnist-partial", nn.NewMNISTNet, func(o Options) Options {
			o.MaxFullSolveTaps = 1
			return o
		}, 31, 31, 9001, 96},
		// The case the façade's TestRecoveryPipelineBitIdentity ran
		// against the oracle while an option could still select it.
		{"mnist-128flips", nn.NewMNISTNet, nil, 5, 42, 4242, 128},
		// The benchmark's heal-conv-bitflip1024 fault class: eight conv
		// layers, several flagged per segment, golden tensors passing
		// through layers that are themselves erroneous.
		{"cifar-small-bitflip1024", nn.NewCIFARSmallNet, nil, 42, 42, 9001, 1024},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			m.InitWeights(c.weightSeed)
			opts := Options{Seed: c.seed}
			if c.opts != nil {
				opts = c.opts(opts)
			}
			pr, err := NewProtector(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			clean := m.Snapshot()

			type outcome struct {
				det  *DetectionReport
				rec  *RecoveryReport
				snap map[int]*tensor.Tensor
			}
			heal := func(sequential bool, workers int) outcome {
				if err := m.Restore(clean); err != nil {
					t.Fatal(err)
				}
				pr.ResetCRC()
				// Identical injector seed → identical corruption per round.
				faults.New(c.injSeed).FlipExactBits(m, c.flips)
				m.SetWorkers(workers)
				selfHeal := pr.SelfHeal
				if sequential {
					selfHeal = pr.selfHealOracle
				}
				det, rec, err := selfHeal()
				if err != nil {
					t.Fatalf("sequential=%v workers=%d: %v", sequential, workers, err)
				}
				if !sequential {
					// A heal verifies each layer with the scrub that
					// flagged it, so a fresh scrub flags exactly the
					// layers the heal did not report Recovered.
					unrecovered := []int{}
					for _, r := range rec.Results {
						if r.Status != Recovered {
							unrecovered = append(unrecovered, r.Layer)
						}
					}
					after, err := pr.Detect()
					if err != nil {
						t.Fatal(err)
					}
					if got := after.Erroneous(); !reflect.DeepEqual(got, unrecovered) {
						t.Errorf("workers=%d: scrub after heal flags %v, want the unrecovered layers %v", workers, got, unrecovered)
					}
				}
				return outcome{det: det, rec: rec, snap: m.Snapshot()}
			}

			for _, workers := range []int{1, 4} {
				want := heal(true, workers)
				if !want.det.HasErrors() {
					t.Fatal("corruption was not detected; equivalence test is vacuous")
				}
				got := heal(false, workers)
				if !reflect.DeepEqual(got.det, want.det) {
					t.Errorf("workers=%d: detection report differs\n got %+v\nwant %+v",
						workers, got.det.Findings, want.det.Findings)
				}
				if !reflect.DeepEqual(got.rec, want.rec) {
					t.Errorf("workers=%d: recovery report differs\n got %+v\nwant %+v",
						workers, got.rec.Results, want.rec.Results)
				}
				for li, wt := range want.snap {
					gd, wd := got.snap[li].Data(), wt.Data()
					for i := range wd {
						if gd[i] != wd[i] {
							t.Fatalf("workers=%d: layer %d weight %d differs: batched %v, sequential %v",
								workers, li, i, gd[i], wd[i])
						}
					}
				}
			}
			m.SetWorkers(0)
		})
	}
}

// healGEMMs restores the clean weights, corrupts them and returns the
// GEMMs one self-heal spends — the batched pipeline's, or the per-layer
// oracle's — after checking that detection flagged exactly want layers.
func healGEMMs(t *testing.T, m *nn.Model, pr *Protector, clean map[int]*tensor.Tensor, corrupt func(), want int, sequential bool) uint64 {
	t.Helper()
	if err := m.Restore(clean); err != nil {
		t.Fatal(err)
	}
	pr.ResetCRC()
	corrupt()
	selfHeal := pr.SelfHeal
	if sequential {
		selfHeal = pr.selfHealOracle
	}
	before := tensor.GEMMCalls()
	det, _, err := selfHeal()
	if err != nil {
		t.Fatalf("sequential=%v: %v", sequential, err)
	}
	if len(det.Findings) != want {
		t.Fatalf("sequential=%v: flagged %d layers, want %d", sequential, len(det.Findings), want)
	}
	return tensor.GEMMCalls() - before
}

// TestBatchedRecoveryGEMMBudget enforces the pipeline's cost contract
// via the kernel counter: with every parameterized TinyNet layer
// corrupted (two flagged layers in each of the four checkpoint
// segments), one self-heal must spend exactly the GEMMs the cost model
// below derives.
func TestBatchedRecoveryGEMMBudget(t *testing.T) {
	m, err := nn.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(13)
	pr, err := NewProtector(m, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	clean := m.Snapshot()
	paramLayers := 0
	for _, l := range m.Layers() {
		if _, ok := l.(nn.Parameterized); ok {
			paramLayers++
		}
	}
	corrupt := func() {
		for _, l := range m.Layers() {
			if p, ok := l.(nn.Parameterized); ok {
				p.Params().Data()[0] += 40
			}
		}
	}
	batched := healGEMMs(t, m, pr, clean, corrupt, paramLayers, false)

	// Detection probes every conv/dense layer once: a one-row GEMM each
	// (the layer's PRNG row times its parameter matrix). Recovery
	// then spends, per flagged conv or dense layer:
	//   - its one-row verification probe, the same as detection's;
	//   - its propagation GEMM when the segment's sweep goes on through
	//     it — here, when the flagged bias after it shares its segment,
	//     since a bias recovers from the golden input;
	//   - in partial mode (convs only), the one-row CRC false-negative
	//     pre-check.
	// Every segment of this net holds one conv or dense layer, so the
	// sweep shares no GEMM with the oracle here; see
	// TestBatchedRecoverySharesSegmentGEMMs for a net where it does.
	convDense, propagating, partialConvs := 0, 0, 0
	for i, l := range m.Layers() {
		switch l.(type) {
		case *nn.Conv2D, *nn.Dense:
			convDense++
			if i+1 < m.NumLayers() && pr.plan.layers[i+1].role == roleBias && pr.plan.succeedingBoundary(i) > i+1 {
				propagating++
			}
		}
	}
	for _, info := range pr.PlanInfo() {
		if info.PartialMode {
			partialConvs++
		}
	}
	want := uint64(2*convDense + propagating + partialConvs)
	if batched != want {
		t.Errorf("batched self-heal spent %d GEMMs, want %d (1 detect + 1 probe per conv/dense layer + %d propagations + %d partial-mode pre-checks)",
			batched, want, propagating, partialConvs)
	}
}

// TestBatchedRecoverySharesSegmentGEMMs pins the amortization on a net
// with two GEMM layers in one checkpoint segment — a 3×3 conv with nine
// filters (invertible without dummies), bias, ReLU, flatten, a square
// dense layer, bias — with both biases flagged. Detection spends two
// probes; the batched sweep then propagates once through the conv and
// once through the dense layer (4 GEMMs), while the oracle propagates
// through the conv again for the second bias (5).
func TestBatchedRecoverySharesSegmentGEMMs(t *testing.T) {
	conv, err := nn.NewConv2D(3, 1, 9, 1, nn.Valid)
	if err != nil {
		t.Fatal(err)
	}
	b0, err := nn.NewBias(9)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := nn.NewDense(144, 144)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := nn.NewBias(144)
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.NewModel(tensor.Shape{6, 6, 1}, conv, b0, nn.NewReLU(), nn.NewFlatten(), dense, b1)
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(17)
	pr, err := NewProtector(m, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if segs := pr.plan.segments(); len(segs) != 1 {
		t.Fatalf("net has %d checkpoint segments, want 1", len(segs))
	}
	clean := m.Snapshot()
	corrupt := func() {
		b0.Params().Data()[0] += 40
		b1.Params().Data()[0] += 40
	}
	batched := healGEMMs(t, m, pr, clean, corrupt, 2, false)
	sequential := healGEMMs(t, m, pr, clean, corrupt, 2, true)
	if batched != 4 || sequential != 5 {
		t.Errorf("self-heal spent %d GEMMs batched and %d sequential, want 4 and 5", batched, sequential)
	}
}
