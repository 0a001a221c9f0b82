package bench

import (
	"errors"
	"math"
	"testing"

	"milr/internal/nn"
	"milr/internal/zoo"
)

func TestConfigValidation(t *testing.T) {
	if _, err := BuildEnv("tiny", Config{}, ""); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := BuildEnv("resnet", DefaultConfig(1), ""); !errors.Is(err, zoo.ErrUnknownNetwork) {
		t.Errorf("unknown network: err = %v, want zoo.ErrUnknownNetwork", err)
	}
}

func TestDefaultAndFullConfigs(t *testing.T) {
	d := DefaultConfig(1)
	f := FullConfig(1)
	if f.Runs <= d.Runs || f.TestSamples <= d.TestSamples {
		t.Errorf("full config not larger than default: %+v vs %+v", f, d)
	}
	if f.Runs != 40 {
		t.Errorf("full config runs %d, paper uses 40", f.Runs)
	}
}

func TestRunSeedDeterministicAndDistinct(t *testing.T) {
	a := runSeed(1, 2, 3)
	if runSeed(1, 2, 3) != a {
		t.Error("runSeed not deterministic")
	}
	seen := map[uint64]bool{a: true}
	for ri := 0; ri < 5; ri++ {
		for run := 0; run < 5; run++ {
			s := runSeed(1, ri, run)
			if ri == 2 && run == 3 {
				continue
			}
			if seen[s] {
				t.Fatalf("runSeed collision at (%d,%d)", ri, run)
			}
			seen[s] = true
		}
	}
}

func TestParamWordsRoundTrip(t *testing.T) {
	m, err := nn.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(5)
	words := paramWords(m)
	if len(words) != m.ParamCount() {
		t.Fatalf("%d words for %d params", len(words), m.ParamCount())
	}
	snap := m.Snapshot()
	// Mutate, write back, verify restoration.
	for i := range words {
		words[i] ^= 0
	}
	writeWordsBack(m, words)
	for k, tc := range snap {
		got := m.Snapshot()[k]
		for i := range tc.Data() {
			if math.Float32bits(tc.Data()[i]) != math.Float32bits(got.Data()[i]) {
				t.Fatalf("layer %d word %d changed", k, i)
			}
		}
	}
}

func TestScrubECCFixesSingleBitFlip(t *testing.T) {
	env := tinyEnv(t)
	var p nn.Parameterized
	for _, l := range env.Model.Layers() {
		if pp, ok := l.(nn.Parameterized); ok {
			p = pp
			break
		}
	}
	d := p.Params().Data()
	orig := d[0]
	d[0] = math.Float32frombits(math.Float32bits(d[0]) ^ (1 << 22))
	stats, err := env.ScrubECC()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corrected != 1 {
		t.Errorf("corrected %d, want 1", stats.Corrected)
	}
	if d[0] != orig {
		t.Error("single-bit flip not repaired by scrub")
	}
}

func TestApplySchemeUnknown(t *testing.T) {
	env := tinyEnv(t)
	if _, err := applyScheme(env, Scheme(99)); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestSchemeAndKindStrings(t *testing.T) {
	for _, s := range []Scheme{NoRecovery, ECCOnly, MILROnly, ECCPlusMILR, Scheme(42)} {
		if s.String() == "" {
			t.Errorf("empty string for scheme %d", int(s))
		}
	}
}
