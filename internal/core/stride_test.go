package core

import (
	"testing"

	"milr/internal/faults"
	"milr/internal/nn"
	"milr/internal/tensor"
)

// Strided convolutions: the paper's networks are all stride-1, but the
// conv algebra (G = (M − F + 2P)/S + 1, Equation 4) generalizes and so
// must the recovery machinery — the im2col lowering carries the stride.

func stridedNet(t *testing.T, seed uint64) (*nn.Model, *Protector) {
	t.Helper()
	conv0, err := nn.NewConv2D(3, 1, 6, 2, nn.Valid) // (13,13,1) -> (6,6,6), G²=36 ≥ 9
	if err != nil {
		t.Fatal(err)
	}
	bias0, err := nn.NewBias(6)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := nn.NewDense(216, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.NewModel(tensor.Shape{13, 13, 1},
		conv0, bias0, nn.NewReLU(), nn.NewFlatten(), dense)
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(seed)
	pr, err := NewProtector(m, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m, pr
}

func TestStridedConvWholeLayerRecovery(t *testing.T) {
	m, pr := stridedNet(t, 81)
	info := pr.PlanInfo()
	if !info[0].FullSolve {
		t.Fatalf("strided conv over raw input should be full-solve: %+v", info[0])
	}
	clean := m.Snapshot()
	faults.New(1).OverwriteLayer(m.Layer(0).(nn.Parameterized))
	det, rec, err := pr.SelfHeal()
	if err != nil {
		t.Fatal(err)
	}
	if !det.HasErrors() || !rec.AllRecovered() {
		t.Fatalf("strided conv recovery failed: %+v", rec.Results)
	}
	if diff := maxParamDiff(clean, m.Snapshot()); diff > 1e-2 {
		t.Fatalf("parameters off by %g", diff)
	}
}

func TestBurstRecoveryEndToEnd(t *testing.T) {
	m, pr := tinyProtected(t, 82)
	clean := m.Snapshot()
	inj := faults.New(7)
	layer, n := inj.Burst(m, 6)
	if n == 0 {
		t.Fatal("burst landed nowhere")
	}
	det, rec, err := pr.SelfHeal()
	if err != nil {
		t.Fatal(err)
	}
	flagged := false
	for _, f := range det.Findings {
		if f.Layer == layer {
			flagged = true
		}
	}
	if !flagged {
		t.Fatalf("burst in layer %d not flagged (got %v)", layer, det.Erroneous())
	}
	if !rec.AllRecovered() {
		// A burst can land in the tiny net's partial-mode conv; exact
		// recovery still expected because CRC localizes a contiguous run.
		t.Fatalf("burst recovery not clean: %+v", rec.Results)
	}
	if diff := maxParamDiff(clean, m.Snapshot()); diff > 1e-2 {
		t.Fatalf("parameters off by %g after burst recovery", diff)
	}
}

func TestStuckAtRecoveryEndToEnd(t *testing.T) {
	m, pr := tinyProtected(t, 83)
	clean := m.Snapshot()
	if n := faults.New(9).StuckAt(m, 10, 0); n == 0 {
		t.Fatal("no weights stuck")
	}
	_, rec, err := pr.SelfHeal()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.AllRecovered() {
		t.Fatalf("stuck-at recovery not clean: %+v", rec.Results)
	}
	if diff := maxParamDiff(clean, m.Snapshot()); diff > 1e-2 {
		t.Fatalf("parameters off by %g", diff)
	}
}
