package core

import (
	"math"
	"testing"
	"testing/quick"

	"milr/internal/nn"
	"milr/internal/prng"
)

// Property-based tests over the engine's core invariants, driven by
// testing/quick with derived seeds.

// Property: any single whole-weight error (all 32 bits flipped) in any
// parameterized layer of the tiny network is detected and exactly
// recovered.
func TestPropertyWholeWeightAlwaysHealed(t *testing.T) {
	m, pr := tinyProtected(t, 91)
	clean := m.Snapshot()
	params := paramLayers(m)
	check := func(seed uint64) bool {
		s := prng.New(seed)
		p := params[s.Intn(len(params))]
		d := p.Params().Data()
		idx := s.Intn(len(d))
		d[idx] = math.Float32frombits(^math.Float32bits(d[idx]))
		det, rec, err := pr.SelfHeal()
		ok := err == nil && det.HasErrors() && rec.AllRecovered() &&
			maxParamDiff(clean, m.Snapshot()) < 1e-2
		if err := m.Restore(clean); err != nil {
			return false
		}
		pr.ResetCRC()
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: detection never flags a clean network, no matter how many
// heal/restore cycles preceded it.
func TestPropertyCleanNeverFlagged(t *testing.T) {
	m, pr := tinyProtected(t, 92)
	clean := m.Snapshot()
	for round := 0; round < 5; round++ {
		params := paramLayers(m)
		params[round%len(params)].Params().Data()[0] += 11
		if _, _, err := pr.SelfHeal(); err != nil {
			t.Fatal(err)
		}
		if err := m.Restore(clean); err != nil {
			t.Fatal(err)
		}
		pr.ResetCRC()
		rep, err := pr.Detect()
		if err != nil {
			t.Fatal(err)
		}
		if rep.HasErrors() {
			t.Fatalf("round %d: clean network flagged: %+v", round, rep.Findings)
		}
	}
}

// Property: golden pairs stay mutually consistent under recovery-mode
// forward for every parameterized layer, for several seeds.
func TestPropertyGoldenPairsConsistent(t *testing.T) {
	for _, seed := range []uint64{5, 17, 99} {
		m, err := nn.NewTinyPartialNet()
		if err != nil {
			t.Fatal(err)
		}
		m.InitWeights(seed)
		pr, err := NewProtector(m, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range m.Layers() {
			if _, ok := l.(nn.Parameterized); !ok {
				continue
			}
			in, out, err := pr.GoldenPair(i)
			if err != nil {
				t.Fatalf("seed %d layer %d: %v", seed, i, err)
			}
			fwd, err := m.ForwardRange(i, i+1, in, true)
			if err != nil {
				t.Fatal(err)
			}
			if !fwd.Equalish(out, 1e-3) {
				d, _ := fwd.MaxAbsDiff(out)
				t.Errorf("seed %d layer %d: golden pair off by %g", seed, i, d)
			}
		}
	}
}

// Property: the detection seed space is layer-local — two protectors
// with different master seeds never share probe rows (detection state
// is not transferable).
func TestPropertyDetectionSeedIsolation(t *testing.T) {
	_, pr1 := tinyProtected(t, 93)
	_, pr2 := tinyProtected(t, 94)
	lp := pr1.plan.layers[0]
	taps := lp.conv.FilterSize() * lp.conv.FilterSize() * lp.conv.InChannels()
	row1 := prng.TensorFor(pr1.opts.Seed, lp.tag(tagDetect), 1, taps)
	row2 := prng.TensorFor(pr2.opts.Seed, pr2.plan.layers[0].tag(tagDetect), 1, taps)
	if row1.Equalish(row2, 0) {
		t.Fatal("distinct master seeds produced identical probe rows")
	}
}

// Property: storage accounting is invariant under fault injection and
// recovery (MILR never grows its stored state at runtime).
func TestPropertyStorageInvariant(t *testing.T) {
	m, pr := tinyProtected(t, 95)
	before := pr.Storage().MILRBytes()
	params := paramLayers(m)
	params[0].Params().Data()[0] += 9
	if _, _, err := pr.SelfHeal(); err != nil {
		t.Fatal(err)
	}
	after := pr.Storage().MILRBytes()
	if before != after {
		t.Fatalf("storage changed %d -> %d across recovery", before, after)
	}
}
