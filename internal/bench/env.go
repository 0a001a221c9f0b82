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

// NetKind selects one of the paper's evaluation networks (or the test
// suite's tiny network).
type NetKind int

const (
	// MNIST is the Table I network on the MNIST-like synthetic dataset.
	MNIST NetKind = iota + 1
	// CIFARSmall is the Table II network on the CIFAR-like dataset.
	CIFARSmall
	// CIFARLarge is the Table III network on the CIFAR-like dataset,
	// with the paper's all-convs-partial cost policy.
	CIFARLarge
	// Tiny is the miniature network used by tests and quick benches.
	Tiny
)

// String implements fmt.Stringer.
func (k NetKind) String() string {
	switch k {
	case MNIST:
		return "MNIST"
	case CIFARSmall:
		return "CIFAR-10 Small"
	case CIFARLarge:
		return "CIFAR-10 Large"
	case Tiny:
		return "Tiny"
	default:
		return fmt.Sprintf("NetKind(%d)", int(k))
	}
}

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
	Kind      NetKind
	Model     *nn.Model
	Protector *core.Protector
	ECC       *ecc.Protector
	Test      []nn.Sample
	BaseAcc   float64
	Config    Config

	clean map[int]*tensor.Tensor
}

// BuildEnv constructs, trains, and protects a network.
func BuildEnv(kind NetKind, cfg Config) (*Env, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	model, opts, data, err := buildNet(kind, cfg)
	if err != nil {
		return nil, err
	}
	model.InitWeights(cfg.Seed)
	train, test := data.train, data.test
	cfg.logf("[%s] training on %d synthetic samples, %d epochs...", kind, len(train), cfg.Epochs)
	start := time.Now()
	loss, err := nn.Train(model, train, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: 16,
		LR:        0.03,
		Momentum:  0.9,
		Seed:      cfg.Seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: train %v: %w", kind, err)
	}
	cfg.logf("[%s] trained in %v (final loss %.4f)", kind, time.Since(start).Round(time.Millisecond), loss)
	acc, err := nn.Evaluate(model, test)
	if err != nil {
		return nil, err
	}
	cfg.logf("[%s] baseline accuracy: %.1f%%", kind, 100*acc)
	pr, err := newProtector(model, opts, cfg, kind)
	if err != nil {
		return nil, err
	}
	env := &Env{
		Kind:      kind,
		Model:     model,
		Protector: pr,
		ECC:       newECC(model),
		Test:      test,
		BaseAcc:   acc,
		Config:    cfg,
		clean:     model.Snapshot(),
	}
	return env, nil
}

func newProtector(model *nn.Model, opts core.Options, cfg Config, kind NetKind) (*core.Protector, error) {
	start := time.Now()
	pr, err := core.NewProtector(model, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: protect %v: %w", kind, err)
	}
	cfg.logf("[%s] MILR initialization: %v", kind, time.Since(start).Round(time.Millisecond))
	return pr, nil
}

func newECC(model *nn.Model) *ecc.Protector {
	return ecc.NewProtector(paramWords(model))
}

type netData struct {
	train, test []nn.Sample
}

// kindNetwork names each kind's row in the zoo table.
var kindNetwork = map[NetKind]string{MNIST: "mnist", CIFARSmall: "cifar-small", CIFARLarge: "cifar-large", Tiny: "tiny"}

// buildModel constructs the (untrained) network and MILR options for a
// kind from its zoo row, applying the configuration's worker counts.
func buildModel(kind NetKind, cfg Config) (*nn.Model, core.Options, error) {
	net, err := zoo.Lookup(kindNetwork[kind])
	if err != nil {
		return nil, core.Options{}, fmt.Errorf("bench: net kind %d: %w", kind, err)
	}
	opts := net.Options(cfg.Seed)
	opts.Workers = cfg.Workers
	model, err := net.New()
	if err != nil {
		return nil, opts, err
	}
	model.SetWorkers(cfg.Workers)
	return model, opts, nil
}

func buildNet(kind NetKind, cfg Config) (*nn.Model, core.Options, *netData, error) {
	model, opts, err := buildModel(kind, cfg)
	if err != nil {
		return nil, opts, nil, err
	}
	var dcfg dataset.Config
	switch kind {
	case MNIST:
		dcfg = dataset.MNISTLike(cfg.Seed)
	case CIFARSmall, CIFARLarge:
		dcfg = dataset.CIFARLike(cfg.Seed)
	case Tiny:
		dcfg = dataset.Config{Height: 12, Width: 12, Channels: 1, Classes: 4,
			NoiseStd: 0.15, MaxShift: 1, Seed: cfg.Seed}
	}
	ds, err := dataset.New(dcfg)
	if err != nil {
		return nil, opts, nil, err
	}
	train, test := ds.TrainTest(cfg.TrainSamples, cfg.TestSamples)
	return model, opts, &netData{train: train, test: test}, nil
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
