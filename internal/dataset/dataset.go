package dataset

import (
	"fmt"
	"math"

	"milr/internal/nn"
	"milr/internal/prng"
	"milr/internal/tensor"
)

// Config describes a synthetic dataset.
type Config struct {
	Height, Width, Channels int
	Classes                 int
	// NoiseStd is the per-pixel additive Gaussian noise level.
	NoiseStd float64
	// MaxShift is the largest circular spatial shift applied per sample.
	MaxShift int
	Seed     uint64
}

// MNISTLike returns the 28×28×1 10-class configuration standing in for
// MNIST.
func MNISTLike(seed uint64) Config {
	return Config{Height: 28, Width: 28, Channels: 1, Classes: 10, NoiseStd: 0.15, MaxShift: 2, Seed: seed}
}

// CIFARLike returns the 32×32×3 10-class configuration standing in for
// CIFAR-10.
func CIFARLike(seed uint64) Config {
	return Config{Height: 32, Width: 32, Channels: 3, Classes: 10, NoiseStd: 0.15, MaxShift: 2, Seed: seed}
}

// Dataset holds class templates and produces samples deterministically.
type Dataset struct {
	cfg       Config
	templates []*tensor.Tensor
}

// New builds the class templates for a configuration.
func New(cfg Config) (*Dataset, error) {
	if cfg.Height <= 0 || cfg.Width <= 0 || cfg.Channels <= 0 || cfg.Classes <= 0 {
		return nil, fmt.Errorf("dataset: invalid config %+v", cfg)
	}
	d := &Dataset{cfg: cfg, templates: make([]*tensor.Tensor, cfg.Classes)}
	for c := 0; c < cfg.Classes; c++ {
		d.templates[c] = makeTemplate(cfg, c)
	}
	return d, nil
}

// makeTemplate builds a smooth, class-specific pattern: a sum of a few
// pseudo-random 2-D sinusoids per channel. Distinct classes draw distinct
// frequencies and phases, so templates are far apart in L2.
func makeTemplate(cfg Config, class int) *tensor.Tensor {
	stream := prng.New(cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(class+1)))
	t := tensor.New(cfg.Height, cfg.Width, cfg.Channels)
	data := t.Data()
	type wave struct{ fx, fy, phase, amp float64 }
	for ch := 0; ch < cfg.Channels; ch++ {
		waves := make([]wave, 3)
		for i := range waves {
			waves[i] = wave{
				fx:    float64(1 + stream.Intn(4)),
				fy:    float64(1 + stream.Intn(4)),
				phase: 2 * math.Pi * stream.Float64(),
				amp:   0.4 + 0.6*stream.Float64(),
			}
		}
		for y := 0; y < cfg.Height; y++ {
			for x := 0; x < cfg.Width; x++ {
				var v float64
				for _, w := range waves {
					v += w.amp * math.Sin(2*math.Pi*(w.fx*float64(x)/float64(cfg.Width)+
						w.fy*float64(y)/float64(cfg.Height))+w.phase)
				}
				data[(y*cfg.Width+x)*cfg.Channels+ch] = float32(v / 3)
			}
		}
	}
	return t
}

// Config returns the dataset configuration.
func (d *Dataset) Config() Config { return d.cfg }

// Sample produces the idx-th sample of a class deterministically.
func (d *Dataset) Sample(class, idx int) nn.Sample {
	cfg := d.cfg
	stream := prng.New(cfg.Seed ^ prng.Mix(uint64(class)*1_000_003+uint64(idx)+1))
	sx := 0
	sy := 0
	if cfg.MaxShift > 0 {
		sx = stream.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
		sy = stream.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
	}
	gain := float32(0.8 + 0.4*stream.Float64())
	tmpl := d.templates[class].Data()
	out := tensor.New(cfg.Height, cfg.Width, cfg.Channels)
	od := out.Data()
	for y := 0; y < cfg.Height; y++ {
		yy := ((y+sy)%cfg.Height + cfg.Height) % cfg.Height
		for x := 0; x < cfg.Width; x++ {
			xx := ((x+sx)%cfg.Width + cfg.Width) % cfg.Width
			for ch := 0; ch < cfg.Channels; ch++ {
				v := gain * tmpl[(yy*cfg.Width+xx)*cfg.Channels+ch]
				v += float32(cfg.NoiseStd * stream.Norm())
				od[(y*cfg.Width+x)*cfg.Channels+ch] = v
			}
		}
	}
	return nn.Sample{X: out, Label: class}
}

// Batch returns n samples, classes round-robin, deterministic in (seed,
// offset). Use distinct offsets for disjoint train/test splits.
func (d *Dataset) Batch(n, offset int) []nn.Sample {
	out := make([]nn.Sample, n)
	for i := 0; i < n; i++ {
		class := i % d.cfg.Classes
		out[i] = d.Sample(class, offset+i/d.cfg.Classes)
	}
	return out
}

// TrainTest returns disjoint train and test splits.
func (d *Dataset) TrainTest(trainN, testN int) (train, test []nn.Sample) {
	train = d.Batch(trainN, 0)
	test = d.Batch(testN, 1_000_000)
	return train, test
}
