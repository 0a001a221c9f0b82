package bench

import (
	"io"
	"testing"

	"milr/internal/faults"
)

// TestMNISTRecoveryAtModerateRBER is the end-to-end regression test of
// the paper's headline claim at figure-5 scale: at RBER 1e-5 the MNIST
// network self-heals back to (essentially) full accuracy. It caught two
// real bugs during development: exponential error growth in non-dominant
// triangular dummy systems, and NaN weights being invisible to
// detection.
func TestMNISTRecoveryAtModerateRBER(t *testing.T) {
	if testing.Short() {
		t.Skip("MNIST training in -short mode")
	}
	cfg := Config{Runs: 1, TestSamples: 30, TrainSamples: 120, Epochs: 1, Seed: 42, Verbose: io.Discard}
	env, err := BuildEnv("mnist", cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	clean := env.Model.Snapshot()
	for run := 0; run < 2; run++ {
		if err := env.Reset(); err != nil {
			t.Fatal(err)
		}
		inj := faults.New(uint64(run + 100))
		if n := inj.BitFlips(env.Model, 1e-5); n == 0 {
			t.Fatal("no flips injected")
		}
		if _, _, err := env.Protector.SelfHeal(); err != nil {
			t.Fatal(err)
		}
		// Every weight must be back within a small tolerance of clean,
		// except the paper's acknowledged leak: errors too small for the
		// lightweight detector. Bound both count and magnitude.
		snap := env.Model.Snapshot()
		wrong := 0
		var worst float64
		for k := range clean {
			da, db := clean[k].Data(), snap[k].Data()
			for i := range da {
				d := float64(da[i] - db[i])
				if d < 0 {
					d = -d
				}
				if d > 1e-3 {
					wrong++
				}
				if d > worst {
					worst = d
				}
			}
		}
		if wrong > 200 {
			t.Errorf("run %d: %d weights still wrong after self-heal", run, wrong)
		}
		if worst > 1.0 {
			t.Errorf("run %d: worst residual weight error %g", run, worst)
		}
		acc, err := env.NormalizedAccuracy()
		if err != nil {
			t.Fatal(err)
		}
		if acc < 0.9 {
			t.Errorf("run %d: normalized accuracy %.3f after self-heal", run, acc)
		}
	}
}
