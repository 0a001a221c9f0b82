package core

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"milr/internal/nn"
	"milr/internal/prng"
	"milr/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from current output")

// healSweepFile pins the single-layer heal sweep; -update rewrites it.
const healSweepFile = "testdata/heal_sweep.golden"

// TestHealSweepGolden is the single-layer heal sweep: on untrained
// (InitWeights(42)) tiny and MNIST nets under Options{Seed: 42}, every
// conv and dense layer in turn gets 1 or 8 weights set uniform in
// ±m·max|w| for m ∈ {0.03, 1, 3}, positions and values drawn from the
// cell's own seed; then one SelfHeal, and the weights and CRC codes go
// back to clean. Each cell prints the flagged layers, each result's
// status, and how many weights, over every parameterized layer, end up
// more than 1e-3 of their layer's max|w| off clean. It records counts
// and statuses only, no residual values, so the x87 math of 386 cannot
// flip a line. Cells that do not heal clean are pinned in the open: a
// change that moves one must rewrite the golden with -update and say
// why.
func TestHealSweepGolden(t *testing.T) {
	var buf bytes.Buffer
	nets := []struct {
		name  string
		build func() (*nn.Model, error)
	}{{"tiny", nn.NewTinyNet}, {"mnist", nn.NewMNISTNet}}
	for ni, net := range nets {
		m, err := net.build()
		if err != nil {
			t.Fatal(err)
		}
		m.InitWeights(42)
		pr, err := NewProtector(m, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		clean := m.Snapshot()
		maxAbs := make(map[int]float64)
		for i, p := range clean {
			for _, v := range p.Data() {
				maxAbs[i] = math.Max(maxAbs[i], math.Abs(float64(v)))
			}
		}
		for _, li := range m.ParamLayers() {
			lp := pr.plan.layers[li]
			if lp.role != roleConv && lp.role != roleDense {
				continue
			}
			for _, faults := range []int{1, 8} {
				for mi, mag := range []float64{0.03, 1, 3} {
					seed := uint64(ni)<<24 | uint64(li)<<16 | uint64(faults)<<8 | uint64(mi)
					line := healSweepCell(t, pr, li, faults, mag*maxAbs[li], seed, clean, maxAbs)
					fmt.Fprintf(&buf, "%s %s(%d) faults=%d m=%v: %s\n", net.name, m.Layer(li).Name(), li, faults, mag, line)
				}
			}
		}
	}
	if *update {
		if err := os.WriteFile(healSweepFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(healSweepFile))
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("heal sweep differs from %s (rerun with -update if the change is intended):\n%s", healSweepFile, buf.String())
	}
}

// healSweepCell corrupts faults distinct weights of layer li with
// values uniform in ±bound, heals once, restores the clean weights and
// CRC codes, and returns the cell's line.
func healSweepCell(t *testing.T, pr *Protector, li, faults int, bound float64, seed uint64,
	clean map[int]*tensor.Tensor, maxAbs map[int]float64) string {
	t.Helper()
	m := pr.Model()
	s := prng.New(seed)
	w := m.Layer(li).(nn.Parameterized).Params().Data()
	hit := make(map[int]bool)
	for len(hit) < faults {
		i := int(s.Uint64() % uint64(len(w)))
		if hit[i] {
			continue
		}
		hit[i] = true
		w[i] = float32((2*s.Float64() - 1) * bound)
	}
	det, rec, err := pr.SelfHeal()
	if err != nil {
		t.Fatalf("layer %d, %d faults, seed %#x: %v", li, faults, seed, err)
	}
	line := fmt.Sprintf("flagged=%v results=[", det.Erroneous())
	for i, r := range rec.Results {
		if i > 0 {
			line += " "
		}
		line += fmt.Sprintf("%d:%s", r.Layer, r.Status)
	}
	off := 0
	for i, p := range clean {
		cur := m.Layer(i).(nn.Parameterized).Params().Data()
		for j, v := range p.Data() {
			if !(math.Abs(float64(cur[j])-float64(v)) <= 1e-3*maxAbs[i]) {
				off++
			}
		}
	}
	if err := m.Restore(clean); err != nil {
		t.Fatal(err)
	}
	pr.ResetCRC()
	return fmt.Sprintf("%s] off=%d", line, off)
}
