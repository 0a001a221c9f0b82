package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"milr/internal/faults"
	"milr/internal/nn"
	"milr/internal/tensor"
)

// Parallel–serial equivalence for the recovery engine. The parallel
// solvers preserve the serial accumulation and write pattern exactly,
// so for identical corruption the detection report, the recovery
// report, and — the strongest check — every recovered weight bit must
// match the serial engine at every worker count.

func equivWorkerCounts() []int {
	counts := []int{1, 2}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 {
		counts = append(counts, g)
	}
	return counts
}

func TestSelfHealParallelSerialEquivalence(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() (*nn.Model, error)
		opts  func(Options) Options
	}{
		{"tiny", nn.NewTinyNet, nil},
		{"tiny-partial", nn.NewTinyPartialNet, nil},
		{"mnist", nn.NewMNISTNet, nil},
		{"cifar-small", nn.NewCIFARSmallNet, nil},
		// The paper's cost policy for the large network: all convs in
		// partial mode, so this exercises the CRC-localized selective
		// solver at scale.
		{"cifar-large", nn.NewCIFARLargeNet, func(o Options) Options {
			o.MaxFullSolveTaps = 1
			return o
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			m.InitWeights(31)
			opts := Options{Seed: 31}
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
			heal := func(workers int) outcome {
				if err := m.Restore(clean); err != nil {
					t.Fatal(err)
				}
				pr.ResetCRC()
				// Identical injector seed → identical corruption per round.
				faults.New(9001).FlipExactBits(m, 48)
				m.SetWorkers(workers)
				det, rec, err := pr.SelfHeal()
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return outcome{det: det, rec: rec, snap: m.Snapshot()}
			}

			want := heal(0) // serial reference path
			if !want.det.HasErrors() {
				t.Fatal("corruption was not detected; equivalence test is vacuous")
			}
			for _, workers := range equivWorkerCounts() {
				got := heal(workers)
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
							t.Fatalf("workers=%d: layer %d weight %d differs: %v vs %v",
								workers, li, i, gd[i], wd[i])
						}
					}
				}
			}
			m.SetWorkers(0)
		})
	}
}

// TestRecoverAllParallelSerialEquivalence drives the forced full-solve
// path (whole-layer experiments) through every solver at once.
func TestRecoverAllParallelSerialEquivalence(t *testing.T) {
	for _, build := range []func() (*nn.Model, error){nn.NewTinyNet, nn.NewTinyPartialNet} {
		m, err := build()
		if err != nil {
			t.Fatal(err)
		}
		m.InitWeights(77)
		pr, err := NewProtector(m, Options{Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		clean := m.Snapshot()
		run := func(workers int) (*RecoveryReport, map[int]*tensor.Tensor) {
			if err := m.Restore(clean); err != nil {
				t.Fatal(err)
			}
			pr.ResetCRC()
			params := paramLayers(m)
			faults.New(5).OverwriteLayer(params[len(params)-1])
			m.SetWorkers(workers)
			rec, err := pr.RecoverContext(context.Background(), allFlagged(pr))
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			return rec, m.Snapshot()
		}
		wantRec, wantSnap := run(0)
		for _, workers := range equivWorkerCounts() {
			gotRec, gotSnap := run(workers)
			if !reflect.DeepEqual(gotRec, wantRec) {
				t.Errorf("workers=%d: recovery report differs", workers)
			}
			for li, wt := range wantSnap {
				gd, wd := gotSnap[li].Data(), wt.Data()
				for i := range wd {
					if gd[i] != wd[i] {
						t.Fatalf("workers=%d: layer %d weight %d differs", workers, li, i)
					}
				}
			}
		}
		m.SetWorkers(0)
	}
}
