package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"milr/internal/core"
	"milr/internal/dataset"
	"milr/internal/ecc"
	"milr/internal/nn"
	"milr/internal/tensor"
	"milr/internal/zoo"
)

// Config scales the experiments.
type Config struct {
	// Runs per error-rate point (paper: 40).
	Runs int
	// TestSamples evaluated per accuracy measurement (paper: 10,000).
	TestSamples int
	// TrainSamples and Epochs control synthetic training.
	TrainSamples int
	Epochs       int
	// Seed drives every deterministic choice.
	Seed uint64
	// Workers bounds the worker pools at every level of the stack:
	// fault-injection campaigns shard runs across environment clones,
	// the MILR engine scrubs/solves concurrently, and the GEMM forward
	// passes fan out. 0 keeps everything serial, n > 0 uses at most n
	// workers per pool, negative resolves to GOMAXPROCS. Results are
	// bit-identical at every setting: campaign cells derive their PRNG
	// streams from the master seed alone (see runSeed), never from
	// worker identity or scheduling order.
	Workers int
	// Verbose, when non-nil, receives progress lines.
	Verbose io.Writer
}

// DefaultConfig returns the scaled-down single-core configuration.
func DefaultConfig(seed uint64) Config {
	return Config{Runs: 5, TestSamples: 100, TrainSamples: 300, Epochs: 2, Seed: seed}
}

// FullConfig returns paper-scale settings (expect hours on one core).
func FullConfig(seed uint64) Config {
	return Config{Runs: 40, TestSamples: 2000, TrainSamples: 2000, Epochs: 5, Seed: seed}
}

func (c Config) validate() error {
	if c.Runs <= 0 || c.TestSamples <= 0 || c.TrainSamples <= 0 || c.Epochs <= 0 {
		return fmt.Errorf("bench: invalid config %+v", c)
	}
	return nil
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Verbose != nil {
		fmt.Fprintf(c.Verbose, format+"\n", args...)
	}
}

// Env is a trained, MILR-protected network plus everything an experiment
// needs: ECC protection of the clean weights, the test set, the baseline
// accuracy, and the clean snapshot to restore between runs.
type Env struct {
	// Network is the zoo row the environment was built from.
	Network   zoo.Network
	Model     *nn.Model
	Protector *core.Protector
	ECC       *ecc.Protector
	Test      []nn.Sample
	BaseAcc   float64
	Config    Config

	clean map[int]*tensor.Tensor
}

// BuildEnv builds the named zoo network, trains it on the network's
// synthetic dataset, and protects it. With a non-empty cacheDir the
// trained weights are loaded from there when present (training is
// skipped) and saved there when not; "" means no cache.
func BuildEnv(network string, cfg Config, cacheDir string) (*Env, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	net, err := zoo.Lookup(network)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	data := net.Data
	data.Seed = cfg.Seed
	ds, err := dataset.New(data)
	if err != nil {
		return nil, err
	}
	train, test := ds.TrainTest(cfg.TrainSamples, cfg.TestSamples)
	model, err := newModel(net, cfg)
	if err != nil {
		return nil, err
	}
	var acc float64
	trained := true
	if cacheDir != "" {
		var lerr error
		if acc, lerr = loadWeights(cacheDir, net.Name, cfg, model); lerr == nil {
			trained = false
			cfg.logf("[%s] loaded cached weights (baseline %.1f%%)", net.Name, 100*acc)
		} else {
			cfg.logf("[%s] no weight cache (%v); training", net.Name, lerr)
		}
	}
	if trained {
		if acc, err = trainModel(net.Name, model, train, test, cfg); err != nil {
			return nil, err
		}
	}
	opts := net.Options(cfg.Seed)
	opts.Workers = cfg.Workers
	start := time.Now()
	pr, err := core.NewProtector(model, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: protect %s: %w", net.Name, err)
	}
	cfg.logf("[%s] MILR initialization: %v", net.Name, time.Since(start).Round(time.Millisecond))
	env := Env{Network: net, Test: test, BaseAcc: acc, Config: cfg, clean: model.Snapshot()}
	out := env.withModel(model, pr)
	if trained && cacheDir != "" {
		if err := saveWeights(cacheDir, out); err != nil {
			cfg.logf("[%s] weight cache write failed: %v", net.Name, err)
		}
	}
	return out, nil
}

// trainModel initialises and trains model, returning its test accuracy.
func trainModel(name string, model *nn.Model, train, test []nn.Sample, cfg Config) (float64, error) {
	model.InitWeights(cfg.Seed)
	cfg.logf("[%s] training on %d synthetic samples, %d epochs...", name, len(train), cfg.Epochs)
	start := time.Now()
	loss, err := nn.Train(model, train, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: 16,
		LR:        0.03,
		Momentum:  0.9,
		Seed:      cfg.Seed + 1,
	})
	if err != nil {
		return 0, fmt.Errorf("bench: train %s: %w", name, err)
	}
	cfg.logf("[%s] trained in %v (final loss %.4f)", name, time.Since(start).Round(time.Millisecond), loss)
	acc, err := nn.Evaluate(model, test)
	if err != nil {
		return 0, err
	}
	cfg.logf("[%s] baseline accuracy: %.1f%%", name, 100*acc)
	return acc, nil
}

// newModel constructs net's untrained model at the configured worker count.
func newModel(net zoo.Network, cfg Config) (*nn.Model, error) {
	model, err := net.New()
	if err != nil {
		return nil, err
	}
	model.SetWorkers(cfg.Workers)
	return model, nil
}

// withModel returns a copy of e over model and its protector, with ECC
// codes computed from model's weights: the one place an Env gets its
// mutable parts, for BuildEnv and Clone alike.
func (e Env) withModel(model *nn.Model, pr *core.Protector) *Env {
	e.Model, e.Protector, e.ECC = model, pr, ecc.NewProtector(paramWords(model))
	return &e
}

// Reset restores the clean weights and protection state between
// injection runs.
func (e *Env) Reset() error {
	if err := e.Model.Restore(e.clean); err != nil {
		return err
	}
	e.Protector.ResetCRC()
	return nil
}

// NormalizedAccuracy evaluates the current (possibly corrupted or
// recovered) network and divides by the error-free baseline, the paper's
// y-axis on every accuracy figure.
func (e *Env) NormalizedAccuracy() (float64, error) {
	acc, err := nn.Evaluate(e.Model, e.Test)
	if err != nil {
		return 0, err
	}
	if e.BaseAcc == 0 {
		return 0, fmt.Errorf("bench: zero baseline accuracy")
	}
	return acc / e.BaseAcc, nil
}

// ScrubECC runs SECDED over the live weights, repairing single-bit
// errors in place.
func (e *Env) ScrubECC() (ecc.Stats, error) {
	words := paramWords(e.Model)
	stats, err := e.ECC.Scrub(words)
	if err != nil {
		return stats, err
	}
	writeWordsBack(e.Model, words)
	return stats, nil
}

// paramWords serializes all parameters as 32-bit words in layer order.
func paramWords(m *nn.Model) []uint32 {
	words := make([]uint32, 0, m.ParamCount())
	for _, l := range m.Layers() {
		if p, ok := l.(nn.Parameterized); ok {
			for _, v := range p.Params().Data() {
				words = append(words, math.Float32bits(v))
			}
		}
	}
	return words
}

func writeWordsBack(m *nn.Model, words []uint32) {
	i := 0
	for _, l := range m.Layers() {
		if p, ok := l.(nn.Parameterized); ok {
			d := p.Params().Data()
			for j := range d {
				d[j] = math.Float32frombits(words[i])
				i++
			}
		}
	}
}

// runSeed derives a per-run injection seed.
func runSeed(base uint64, rateIdx, run int) uint64 {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], base)
	binary.LittleEndian.PutUint64(buf[8:], uint64(rateIdx)+1)
	binary.LittleEndian.PutUint64(buf[16:], uint64(run)+1)
	h := uint64(1469598103934665603)
	for _, b := range buf {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
