package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"milr/internal/faults"
	"milr/internal/nn"
	"milr/internal/prng"
	"milr/internal/tensor"
)

// tinyProtected builds a freshly initialized tiny network with MILR
// attached.
func tinyProtected(t *testing.T, seed uint64) (*nn.Model, *Protector) {
	t.Helper()
	m, err := nn.NewTinyNet()
	if err != nil {
		t.Fatalf("NewTinyNet: %v", err)
	}
	m.InitWeights(seed)
	pr, err := NewProtector(m, Options{Seed: seed})
	if err != nil {
		t.Fatalf("NewProtector: %v", err)
	}
	return m, pr
}

func paramLayers(m *nn.Model) []nn.Parameterized {
	var out []nn.Parameterized
	for _, l := range m.Layers() {
		if p, ok := l.(nn.Parameterized); ok {
			out = append(out, p)
		}
	}
	return out
}

func maxParamDiff(a, b map[int]*tensor.Tensor) float64 {
	var worst float64
	for k, ta := range a {
		d, err := ta.MaxAbsDiff(b[k])
		if err != nil {
			return math.Inf(1)
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

func TestDetectCleanNetworkReportsNothing(t *testing.T) {
	_, pr := tinyProtected(t, 1)
	rep, err := pr.Detect()
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	if rep.HasErrors() {
		t.Fatalf("clean network flagged: %+v", rep.Findings)
	}
}

func TestDetectFlagsBitFlippedLayer(t *testing.T) {
	m, pr := tinyProtected(t, 2)
	// Flip a high mantissa/exponent bit of one weight in the first conv.
	conv := m.Layer(0).(*nn.Conv2D)
	d := conv.Params().Data()
	d[3] = math.Float32frombits(math.Float32bits(d[3]) ^ (1 << 30))
	rep, err := pr.Detect()
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	if len(rep.Erroneous()) != 1 || rep.Erroneous()[0] != 0 {
		t.Fatalf("want layer 0 flagged, got %v", rep.Erroneous())
	}
}

func TestSelfHealSingleConvError(t *testing.T) {
	m, pr := tinyProtected(t, 3)
	clean := m.Snapshot()
	conv := m.Layer(0).(*nn.Conv2D)
	d := conv.Params().Data()
	d[0] = math.Float32frombits(math.Float32bits(d[0]) ^ 0xffffffff) // whole-weight error
	det, rec, err := pr.SelfHeal()
	if err != nil {
		t.Fatalf("SelfHeal: %v", err)
	}
	if !det.HasErrors() {
		t.Fatal("whole-weight error went undetected")
	}
	if !rec.AllRecovered() {
		t.Fatalf("recovery not clean: %+v", rec.Results)
	}
	if diff := maxParamDiff(clean, m.Snapshot()); diff > 1e-3 {
		t.Fatalf("parameters differ from clean by %g after recovery", diff)
	}
}

func TestSelfHealDenseColumnError(t *testing.T) {
	m, pr := tinyProtected(t, 4)
	clean := m.Snapshot()
	var dense *nn.Dense
	var idx int
	for i, l := range m.Layers() {
		if d, ok := l.(*nn.Dense); ok {
			dense, idx = d, i
			break
		}
	}
	d := dense.Params().Data()
	d[5] += 7.5
	d[20] -= 3.25
	det, rec, err := pr.SelfHeal()
	if err != nil {
		t.Fatalf("SelfHeal: %v", err)
	}
	found := false
	for _, f := range det.Findings {
		if f.Layer == idx {
			found = true
		}
	}
	if !found {
		t.Fatalf("dense layer %d not flagged: %+v", idx, det.Findings)
	}
	if !rec.AllRecovered() {
		t.Fatalf("recovery not clean: %+v", rec.Results)
	}
	if diff := maxParamDiff(clean, m.Snapshot()); diff > 1e-3 {
		t.Fatalf("parameters differ from clean by %g after recovery", diff)
	}
}

func TestSelfHealBiasError(t *testing.T) {
	m, pr := tinyProtected(t, 5)
	clean := m.Snapshot()
	var bias *nn.Bias
	for _, l := range m.Layers() {
		if b, ok := l.(*nn.Bias); ok {
			bias = b // take the last bias in the network
		}
	}
	bias.Params().Data()[0] += 42
	det, rec, err := pr.SelfHeal()
	if err != nil {
		t.Fatalf("SelfHeal: %v", err)
	}
	if !det.HasErrors() {
		t.Fatal("bias error went undetected")
	}
	if !rec.AllRecovered() {
		t.Fatalf("recovery not clean: %+v", rec.Results)
	}
	if diff := maxParamDiff(clean, m.Snapshot()); diff > 1e-3 {
		t.Fatalf("parameters differ from clean by %g after recovery", diff)
	}
}

func TestWholeLayerCorruptionRecovery(t *testing.T) {
	m, pr := tinyProtected(t, 6)
	clean := m.Snapshot()
	info := pr.PlanInfo()
	inj := faults.New(99)
	for li, l := range m.Layers() {
		p, ok := l.(nn.Parameterized)
		if !ok {
			continue
		}
		// Interior convs can be partial-recoverable (low-rank golden
		// input) — the paper's "N/A*" rows. Those are exercised by
		// TestPartialModeSelectiveRecovery instead.
		fullyRecoverable := info[li].Role != "conv" || info[li].FullSolve
		inj.OverwriteLayer(p)
		det, rec, err := pr.SelfHeal()
		if err != nil {
			t.Fatalf("layer %d SelfHeal: %v", li, err)
		}
		if !det.HasErrors() {
			t.Fatalf("layer %d: whole-layer corruption undetected", li)
		}
		if fullyRecoverable {
			if !rec.AllRecovered() {
				t.Fatalf("layer %d: recovery not clean: %+v", li, rec.Results)
			}
			if diff := maxParamDiff(clean, m.Snapshot()); diff > 1e-2 {
				t.Fatalf("layer %d: parameters differ by %g after recovery", li, diff)
			}
		}
		if err := m.Restore(clean); err != nil {
			t.Fatalf("restore: %v", err)
		}
	}
}

func TestPartialModeSelectiveRecovery(t *testing.T) {
	m, err := nn.NewTinyPartialNet()
	if err != nil {
		t.Fatalf("NewTinyPartialNet: %v", err)
	}
	m.InitWeights(21)
	pr, err := NewProtector(m, Options{Seed: 21})
	if err != nil {
		t.Fatalf("NewProtector: %v", err)
	}
	// Confirm the second conv really is in partial mode.
	var convIdx int
	partial := false
	for _, info := range pr.PlanInfo() {
		if info.Role == "conv" && info.PartialMode {
			convIdx, partial = info.Layer, true
		}
	}
	if !partial {
		t.Fatal("expected a partial-mode conv in TinyPartialNet")
	}
	clean := m.Snapshot()
	// A handful of scattered large errors: CRC must localize them and
	// the restricted solve must recover them exactly.
	conv := m.Layer(convIdx).(*nn.Conv2D)
	d := conv.Params().Data()
	d[0] += 11
	d[37] -= 4
	d[150] += 2.5
	det, rec, err := pr.SelfHeal()
	if err != nil {
		t.Fatalf("SelfHeal: %v", err)
	}
	if !det.HasErrors() {
		t.Fatal("scattered conv errors undetected")
	}
	if !rec.AllRecovered() {
		t.Fatalf("selective recovery not clean: %+v", rec.Results)
	}
	if diff := maxParamDiff(clean, m.Snapshot()); diff > 1e-3 {
		t.Fatalf("parameters differ by %g after selective recovery", diff)
	}
}

func TestPartialModeWholeLayerIsApproximate(t *testing.T) {
	m, err := nn.NewTinyPartialNet()
	if err != nil {
		t.Fatalf("NewTinyPartialNet: %v", err)
	}
	m.InitWeights(22)
	pr, err := NewProtector(m, Options{Seed: 22})
	if err != nil {
		t.Fatalf("NewProtector: %v", err)
	}
	var convIdx = -1
	for _, info := range pr.PlanInfo() {
		if info.Role == "conv" && info.PartialMode {
			convIdx = info.Layer
		}
	}
	if convIdx < 0 {
		t.Fatal("expected a partial-mode conv")
	}
	faults.New(5).OverwriteLayer(m.Layer(convIdx).(nn.Parameterized))
	_, rec, err := pr.SelfHeal()
	if err != nil {
		t.Fatalf("SelfHeal: %v", err)
	}
	for _, r := range rec.Results {
		if r.Layer == convIdx && r.Status == Failed {
			t.Fatalf("whole-layer partial-mode recovery failed outright: %+v", r)
		}
	}
}

func TestSelfHealPreservesInference(t *testing.T) {
	m, pr := tinyProtected(t, 7)
	x := prng.New(123).Tensor(12, 12, 1)
	want, err := m.Forward(x)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	inj := faults.New(7)
	if n := inj.WholeWeights(m, 0.01); n == 0 {
		t.Skip("no weights hit at this seed/rate")
	}
	if _, _, err := pr.SelfHeal(); err != nil {
		t.Fatalf("SelfHeal: %v", err)
	}
	got, err := m.Forward(x)
	if err != nil {
		t.Fatalf("Forward after heal: %v", err)
	}
	if !want.Equalish(got, 1e-2) {
		d, _ := want.MaxAbsDiff(got)
		t.Fatalf("inference differs by %g after self-heal", d)
	}
}

func TestGoldenPairConsistency(t *testing.T) {
	m, pr := tinyProtected(t, 8)
	// For every parameterized layer, the golden output must equal the
	// layer's recovery-forward of the golden input while the network is
	// clean.
	for i, l := range m.Layers() {
		if _, ok := l.(nn.Parameterized); !ok {
			continue
		}
		in, out, err := pr.GoldenPair(i)
		if err != nil {
			t.Fatalf("GoldenPair(%d): %v", i, err)
		}
		fwd, err := m.ForwardRange(i, i+1, in, true)
		if err != nil {
			t.Fatalf("ForwardRange(%d): %v", i, err)
		}
		if !fwd.Equalish(out, 1e-3) {
			d, _ := fwd.MaxAbsDiff(out)
			t.Errorf("layer %d (%s): golden pair inconsistent by %g", i, l.Name(), d)
		}
	}
}

func TestBoundariesIncludePoolAndDense(t *testing.T) {
	m, pr := tinyProtected(t, 9)
	bset := map[int]bool{}
	for _, b := range pr.Boundaries() {
		bset[b] = true
	}
	for i, l := range m.Layers() {
		switch l.(type) {
		case *nn.Pool2D:
			if !bset[i] {
				t.Errorf("no boundary at pool layer %d", i)
			}
		case *nn.Dense:
			d := l.(*nn.Dense)
			if d.Out() < d.In() && !bset[i] {
				t.Errorf("no boundary at narrowing dense layer %d", i)
			}
		}
	}
	if !bset[m.NumLayers()] {
		t.Error("no boundary at network output")
	}
}

func TestStorageReportSane(t *testing.T) {
	m, pr := tinyProtected(t, 10)
	rep := pr.Storage()
	if rep.BackupBytes != m.ParamCount()*4 {
		t.Errorf("backup bytes %d, want %d", rep.BackupBytes, m.ParamCount()*4)
	}
	wantECC := (m.ParamCount()*7 + 7) / 8
	if rep.ECCBytes != wantECC {
		t.Errorf("ECC bytes %d, want %d", rep.ECCBytes, wantECC)
	}
	if rep.MILRBytes() <= 0 {
		t.Error("MILR bytes not positive")
	}
	if rep.CombinedBytes() != rep.ECCBytes+rep.MILRBytes() {
		t.Error("combined bytes mismatch")
	}
}

// allFlagged builds a detection report that flags every filter, column
// and bias sum of every parameterized layer, so RecoverContext re-solves
// the whole network regardless of what detection would find.
func allFlagged(pr *Protector) *DetectionReport {
	report := &DetectionReport{}
	for _, lp := range pr.plan.layers {
		switch lp.role {
		case roleConv:
			all := make([]int, lp.conv.Filters())
			for k := range all {
				all[k] = k
			}
			report.Findings = append(report.Findings, LayerFinding{Layer: lp.idx, Name: pr.model.Layer(lp.idx).Name(), Filters: all})
		case roleDense:
			all := make([]int, lp.dense.Out())
			for j := range all {
				all[j] = j
			}
			report.Findings = append(report.Findings, LayerFinding{Layer: lp.idx, Name: pr.model.Layer(lp.idx).Name(), Columns: all})
		case roleBias:
			report.Findings = append(report.Findings, LayerFinding{Layer: lp.idx, Name: pr.model.Layer(lp.idx).Name(), SumMismatch: true})
		}
	}
	return report
}

func TestRecoverAllOnCleanNetworkIsStable(t *testing.T) {
	m, pr := tinyProtected(t, 11)
	clean := m.Snapshot()
	rec, err := pr.RecoverContext(context.Background(), allFlagged(pr))
	if err != nil {
		t.Fatalf("full recovery: %v", err)
	}
	if !rec.AllRecovered() {
		t.Fatalf("clean network recovery not clean: %+v", rec.Results)
	}
	// keepTol must prevent float churn: parameters should be bit-exact.
	if diff := maxParamDiff(clean, m.Snapshot()); diff != 0 {
		t.Fatalf("clean network parameters churned by %g", diff)
	}
}

func TestMultiLayerErrorsSequentialRecovery(t *testing.T) {
	m, pr := tinyProtected(t, 12)
	clean := m.Snapshot()
	// Corrupt two layers in different segments.
	ps := paramLayers(m)
	ps[0].Params().Data()[1] += 5
	ps[len(ps)-1].Params().Data()[0] -= 9
	det, rec, err := pr.SelfHeal()
	if err != nil {
		t.Fatalf("SelfHeal: %v", err)
	}
	if len(det.Erroneous()) < 2 {
		t.Fatalf("want ≥2 flagged layers, got %v", det.Erroneous())
	}
	if !rec.AllRecovered() {
		t.Fatalf("recovery not clean: %+v", rec.Results)
	}
	if diff := maxParamDiff(clean, m.Snapshot()); diff > 1e-3 {
		t.Fatalf("parameters differ by %g after recovery", diff)
	}
}

// TestInfWeightHealsToRecovered: a ±Inf weight is flagged and healed
// like any other, in a full-mode conv, a partial-mode conv, a dense
// layer and a bias layer of MNIST. Each heal must report every layer
// Recovered and give the weight its clean bits back; a keep test that
// compared the solution with the Inf as equal would leave it in place.
func TestInfWeightHealsToRecovered(t *testing.T) {
	m, err := nn.NewMNISTNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(42)
	pr, err := NewProtector(m, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	clean := m.Snapshot()
	for _, li := range []int{0, 3, 11, 1} {
		lp := pr.plan.layers[li]
		for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
			name := fmt.Sprintf("%s (%s, full=%v) weight 5 = %v", m.Layer(li).Name(), lp.role, lp.fullSolve(), inf)
			w := m.Layer(li).(nn.Parameterized).Params().Data()
			w[5] = float32(inf)
			det, rec, err := pr.SelfHeal()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := det.Erroneous(); len(got) != 1 || got[0] != li {
				t.Fatalf("%s: flagged %v", name, got)
			}
			if !rec.AllRecovered() {
				t.Fatalf("%s: %+v", name, rec.Results)
			}
			if want := clean[li].Data()[5]; math.Float32bits(w[5]) != math.Float32bits(want) {
				t.Fatalf("%s: healed to %v, clean %v", name, w[5], want)
			}
			if err := m.Restore(clean); err != nil {
				t.Fatal(err)
			}
			pr.ResetCRC()
		}
	}
}

// relMismatchBranchOracle is relMismatch as it was written before its
// absolute values became math.Abs: sign tests that branch.
func relMismatchBranchOracle(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	mag := b
	if mag < 0 {
		mag = -mag
	}
	return d > tol*(1+mag) || d > math.MaxFloat64
}

// TestRelMismatchMatchesBranchOracle pins the branch-free keep and
// detection test to its branching form at both tolerances: every pair
// of specials (±0, ±Inf, NaNs of both signs and several payloads,
// ±subnormals, ±MaxFloat64), pairs one ulp either side of the bound
// tol·(1+|b|), and seeded random bit patterns, both arbitrary and a
// few ulps to a few percent apart.
func TestRelMismatchMatchesBranchOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	specials := []float64{
		0, negZero, math.Inf(1), math.Inf(-1),
		math.NaN(), -math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling
		math.Float64frombits(0xfff8000000c0ffee),
		math.Float64frombits(0x7fffffffffffffff),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64,
		1, -1, 0.5, -3.25, 1e-300, -1e300,
	}
	for _, tol := range []float64{detectTol, keepTol} {
		check := func(a, b float64) {
			t.Helper()
			if got, want := relMismatch(a, b, tol), relMismatchBranchOracle(a, b, tol); got != want {
				t.Fatalf("tol %g: relMismatch(%v [%#x], %v [%#x]) = %v, branching form says %v",
					tol, a, math.Float64bits(a), b, math.Float64bits(b), got, want)
			}
		}
		for _, a := range specials {
			for _, b := range specials {
				check(a, b)
			}
		}
		for _, b := range []float64{0, negZero, 1, -1, 0.37, -2.5e-3, 7e5, -1e-9, math.SmallestNonzeroFloat64} {
			bound := tol * (1 + math.Abs(b))
			for _, d := range []float64{bound, math.Nextafter(bound, 0), math.Nextafter(bound, math.Inf(1))} {
				check(b+d, b)
				check(b-d, b)
				check(math.Nextafter(b+d, math.Inf(1)), b)
				check(math.Nextafter(b-d, math.Inf(-1)), b)
			}
		}
		st := prng.New(53)
		for i := 0; i < 100000; i++ {
			a, b := math.Float64frombits(st.Uint64()), math.Float64frombits(st.Uint64())
			check(a, b)
			check(b*(1+tol*(4*st.Float64()-2)), b)
			check(math.Float64frombits(math.Float64bits(b)+uint64(st.Intn(9))-4), b)
		}
	}
}
