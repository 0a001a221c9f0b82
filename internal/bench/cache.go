package bench

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"milr/internal/nn"
	"milr/internal/tensor"
	"milr/internal/xmaps"
)

// Trained-weight caching: training the CIFAR networks in pure Go on one
// core takes minutes, so cmd/milr-bench caches trained weights on disk
// keyed by zoo network name and training configuration. The cache holds only
// weights; everything else (datasets, checkpoints) regenerates from the
// seed.

type cacheFile struct {
	Network      string
	Seed         uint64
	TrainSamples int
	Epochs       int
	BaseAcc      float64
	Weights      map[int][]float32
}

func cacheKey(network string, cfg Config) string {
	return fmt.Sprintf("milr-%s-seed%d-n%d-e%d.gob", network, cfg.Seed, cfg.TrainSamples, cfg.Epochs)
}

// saveWeights writes the model's trained weights to dir.
func saveWeights(dir string, env *Env) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("bench: cache dir: %w", err)
	}
	cf := cacheFile{
		Network:      env.Network.Name,
		Seed:         env.Config.Seed,
		TrainSamples: env.Config.TrainSamples,
		Epochs:       env.Config.Epochs,
		BaseAcc:      env.BaseAcc,
		Weights:      map[int][]float32{},
	}
	snap := env.Model.Snapshot()
	for _, idx := range xmaps.SortedKeys(snap) {
		cf.Weights[idx] = append([]float32(nil), snap[idx].Data()...)
	}
	path := filepath.Join(dir, cacheKey(env.Network.Name, env.Config))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: cache create: %w", err)
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(&cf); err != nil {
		return fmt.Errorf("bench: cache encode: %w", err)
	}
	return nil
}

// loadWeights restores cached weights into a freshly built model,
// returning the cached baseline accuracy. It returns os.ErrNotExist when
// no usable cache entry exists.
func loadWeights(dir, network string, cfg Config, m *nn.Model) (float64, error) {
	path := filepath.Join(dir, cacheKey(network, cfg))
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var cf cacheFile
	if err := gob.NewDecoder(f).Decode(&cf); err != nil {
		return 0, fmt.Errorf("bench: cache decode %s: %w", path, err)
	}
	if cf.Network != network || cf.Seed != cfg.Seed {
		return 0, os.ErrNotExist
	}
	snap := map[int]*tensor.Tensor{}
	// Sorted so a corrupt cache reports the same (lowest) layer on
	// every run.
	for _, idx := range xmaps.SortedKeys(cf.Weights) {
		w := cf.Weights[idx]
		if idx < 0 || idx >= m.NumLayers() {
			return 0, fmt.Errorf("bench: cache layer index %d out of range", idx)
		}
		p, ok := m.Layer(idx).(nn.Parameterized)
		if !ok {
			return 0, fmt.Errorf("bench: cache layer %d not parameterized", idx)
		}
		if len(w) != p.ParamCount() {
			return 0, fmt.Errorf("bench: cache layer %d has %d weights, want %d", idx, len(w), p.ParamCount())
		}
		t, err := tensor.FromSlice(w, len(w))
		if err != nil {
			return 0, err
		}
		snap[idx] = t
	}
	if err := m.Restore(snap); err != nil {
		return 0, err
	}
	return cf.BaseAcc, nil
}
