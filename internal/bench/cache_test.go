package bench

import (
	"os"
	"path/filepath"
	"testing"

	"milr/internal/nn"
	"milr/internal/zoo"
)

// untrained builds the named zoo network with its weights unset.
func untrained(t *testing.T, network string, cfg Config) *nn.Model {
	t.Helper()
	net, err := zoo.Lookup(network)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newModel(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLoadWeightsMissingFile(t *testing.T) {
	m := untrained(t, "tiny", DefaultConfig(1))
	if _, err := loadWeights(t.TempDir(), "tiny", DefaultConfig(1), m); err == nil {
		t.Fatal("missing cache file accepted")
	}
}

func TestLoadWeightsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig(1)
	path := filepath.Join(dir, cacheKey("tiny", cfg))
	if err := os.WriteFile(path, []byte("not gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := untrained(t, "tiny", cfg)
	if _, err := loadWeights(dir, "tiny", cfg, m); err == nil {
		t.Fatal("corrupt cache accepted")
	}
}

func TestLoadWeightsWrongArchitecture(t *testing.T) {
	// Save a tiny env, then try to load it into an MNIST model: the
	// layer sizes must not match and the load must fail rather than
	// silently mis-restore.
	dir := t.TempDir()
	cfg := Config{Runs: 1, TestSamples: 10, TrainSamples: 20, Epochs: 1, Seed: 77}
	env, err := BuildEnv("tiny", cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := saveWeights(dir, env); err != nil {
		t.Fatal(err)
	}
	// Force the same cache key to be read for a different architecture.
	mnist := untrained(t, "mnist", cfg)
	src := filepath.Join(dir, cacheKey("tiny", cfg))
	dst := filepath.Join(dir, cacheKey("mnist", cfg))
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadWeights(dir, "mnist", cfg, mnist); err == nil {
		t.Fatal("cross-architecture cache accepted")
	}
}

func TestCacheKeyDistinguishesConfigs(t *testing.T) {
	a := cacheKey("tiny", Config{Seed: 1, TrainSamples: 10, Epochs: 1})
	b := cacheKey("tiny", Config{Seed: 2, TrainSamples: 10, Epochs: 1})
	c := cacheKey("mnist", Config{Seed: 1, TrainSamples: 10, Epochs: 1})
	d := cacheKey("tiny", Config{Seed: 1, TrainSamples: 20, Epochs: 1})
	keys := map[string]bool{a: true, b: true, c: true, d: true}
	if len(keys) != 4 {
		t.Fatalf("cache keys collide: %q %q %q %q", a, b, c, d)
	}
}
