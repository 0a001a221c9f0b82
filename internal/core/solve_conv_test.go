package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"milr/internal/nn"
	"milr/internal/tensor"
)

// checkConvSelectiveMatchesOracle corrupts lp's weights with corrupt,
// solves suspects from the same corrupted weights with the oracle
// (recover_oracle_test.go) and with solveConvSuspects, and compares
// every weight bit and the exact/approximate counts. It returns how
// many weights the oracle rewrote and how many filters it solved
// approximately, and leaves the layer as it found it.
func checkConvSelectiveMatchesOracle(t *testing.T, name string, lp *layerPlan, in, out *tensor.Tensor,
	suspects map[int][]int, corrupt func(w []float32), workers int) (rewritten, approximate int) {
	t.Helper()
	w := lp.conv.Params().Data()
	clean := append([]float32(nil), w...)
	defer copy(w, clean)
	corrupt(w)
	corrupted := append([]float32(nil), w...)
	wantExact, wantApprox, err := solveConvSelectiveOracle(lp, in, out, suspects, workers)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	want := append([]float32(nil), w...)
	copy(w, corrupted)
	exact, under, deficient, err := solveConvSuspects(lp, in, out, suspects, workers)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	approx := under + deficient
	if exact != wantExact || approx != wantApprox {
		t.Fatalf("%s, workers %d: %d exact, %d approximate; oracle %d, %d",
			name, workers, exact, approx, wantExact, wantApprox)
	}
	for i := range w {
		if math.Float32bits(w[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s, workers %d: weight %d is %v, oracle %v", name, workers, i, w[i], want[i])
		}
		if math.Float32bits(want[i]) != math.Float32bits(corrupted[i]) {
			rewritten++
		}
	}
	return rewritten, approx
}

// checkConvSelectiveCases runs the per-row oracle cases on one conv
// layer with its golden pair, at workers {1, 3, -1}: suspects at the
// first and last tap, adjacent ones and an empty list; NaN and ±Inf in
// suspect weights; a duplicated suspect, whose restricted system is
// singular and takes the pseudo-inverse path; and, where the layer has
// fewer output positions than taps, every tap suspect, the wide
// pseudo-inverse (minimum-norm) path, which it reports. Every case must rewrite weights, or the test is
// vacuous. The layer needs at least five filters.
func checkConvSelectiveCases(t *testing.T, lp *layerPlan, in, out *tensor.Tensor) (minNorm bool) {
	t.Helper()
	c := lp.conv
	taps, y := c.FilterSize()*c.FilterSize()*c.InChannels(), c.Filters()
	g2 := out.NumElements() / y
	set := func(vals map[int]float32, filter int) func(w []float32) {
		return func(w []float32) {
			for tap, v := range vals {
				w[tap*y+filter] = v
			}
		}
	}
	type testCase struct {
		name     string
		suspects map[int][]int
		corrupt  func(w []float32)
	}
	cases := []testCase{
		{"ends and adjacent", map[int][]int{0: {0, taps - 1}, y - 1: {1, 2, 3}, y / 2: {taps - 2, taps - 1}, y / 3: nil},
			func(w []float32) {
				set(map[int]float32{0: 3, taps - 1: -2}, 0)(w)
				set(map[int]float32{1: 1.5, 2: -4, 3: 0.75}, y-1)(w)
				set(map[int]float32{taps - 2: 9, taps - 1: -9}, y/2)(w)
			}},
		{"NaN and ±Inf", map[int][]int{1: {0}, 2: {taps / 2, taps/2 + 1}, 3: {taps - 1}},
			func(w []float32) {
				set(map[int]float32{0: float32(math.NaN())}, 1)(w)
				set(map[int]float32{taps / 2: float32(math.Inf(1)), taps/2 + 1: float32(math.Inf(-1))}, 2)(w)
				set(map[int]float32{taps - 1: math.Float32frombits(0xffc0beef)}, 3)(w)
			}},
		{"duplicated suspect", map[int][]int{4: {5, 5}}, set(map[int]float32{5: 6}, 4)},
	}
	if taps > g2 {
		all := make([]int, taps)
		for i := range all {
			all[i] = i
		}
		cases = append(cases, testCase{"every tap, underdetermined", map[int][]int{0: all, y - 1: all},
			func(w []float32) {
				set(map[int]float32{0: 5, taps / 3: -5}, 0)(w)
				set(map[int]float32{taps - 1: 7}, y-1)(w)
			}})
		minNorm = true
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3, -1} {
			name := c.Name() + " " + tc.name
			n, approx := checkConvSelectiveMatchesOracle(t, name, lp, in, out, tc.suspects, tc.corrupt, workers)
			if n == 0 {
				t.Fatalf("%s: the oracle rewrote nothing; test is vacuous", name)
			}
			// The duplicate's restricted system is singular: QR
			// refuses it and the pseudo-inverse solve is reported
			// approximate.
			if tc.name == "duplicated suspect" && approx != 1 {
				t.Fatalf("%s: %d filters approximate, want 1 (the pseudo-inverse path)", name, approx)
			}
		}
	}
	return minNorm
}

// TestConvSelectiveSolveMatchesOracle pins the suspect-set conv solve
// bit-identical to the per-row oracle on every conv layer of
// CIFAR-small, with its golden pair (checkConvSelectiveCases); at
// least one layer must take the minimum-norm path.
func TestConvSelectiveSolveMatchesOracle(t *testing.T) {
	m, err := nn.NewCIFARSmallNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(42)
	pr, err := NewProtector(m, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	minNormLayers := 0
	for _, lp := range pr.plan.layers {
		if lp.role != roleConv {
			continue
		}
		in, out, err := pr.GoldenPair(lp.idx)
		if err != nil {
			t.Fatal(err)
		}
		if checkConvSelectiveCases(t, lp, in, out) {
			minNormLayers++
		}
	}
	if minNormLayers == 0 {
		t.Fatal("no layer took the minimum-norm path")
	}
}

// TestConvSelectiveSolveIndexMathMatchesOracle runs the per-row oracle
// cases (checkConvSelectiveCases) on the conv geometries CIFAR-small
// lacks, where the suspect solve's own lowering computes the stride and
// padding offsets the oracle takes from Conv2D.Lower: stridedNet's
// stride-2 unpadded conv, MNIST's stride-1 unpadded convs, and a net on
// a non-square 11×7 input with a stride-2 unpadded conv and a padded
// one (nn pads only at stride 1).
func TestConvSelectiveSolveIndexMathMatchesOracle(t *testing.T) {
	_, strided := stridedNet(t, 81)
	mnist, err := nn.NewMNISTNet()
	if err != nil {
		t.Fatal(err)
	}
	mnist.InitWeights(42)
	mnistPr, err := NewProtector(mnist, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	conv0, err := nn.NewConv2D(3, 2, 6, 2, nn.Valid) // (11,7,2) -> (5,3,6), G²=15 < 18 taps
	if err != nil {
		t.Fatal(err)
	}
	conv1, err := nn.NewConv2D(3, 6, 8, 1, nn.Same) // (5,3,6) -> (5,3,8)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := nn.NewDense(120, 4)
	if err != nil {
		t.Fatal(err)
	}
	oblong, err := nn.NewModel(tensor.Shape{11, 7, 2}, conv0, nn.NewReLU(), conv1, nn.NewFlatten(), dense)
	if err != nil {
		t.Fatal(err)
	}
	oblong.InitWeights(83)
	oblongPr, err := NewProtector(oblong, Options{Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	var strides, valid, padded, nonSquare, minNorm int
	for _, pr := range []*Protector{strided, mnistPr, oblongPr} {
		for _, lp := range pr.plan.layers {
			if lp.role != roleConv {
				continue
			}
			in, out, err := pr.GoldenPair(lp.idx)
			if err != nil {
				t.Fatal(err)
			}
			if checkConvSelectiveCases(t, lp, in, out) {
				minNorm++
			}
			if lp.conv.Stride() > 1 {
				strides++
			}
			if lp.conv.Pad() == 0 {
				valid++
			} else {
				padded++
			}
			if in.Dim(0) != in.Dim(1) {
				nonSquare++
			}
		}
	}
	if strides < 2 || valid < 2 || padded < 1 || nonSquare < 2 || minNorm == 0 {
		t.Fatalf("covered %d strided, %d unpadded, %d padded, %d non-square convs and %d minimum-norm layers",
			strides, valid, padded, nonSquare, minNorm)
	}
}

// TestConvSolveAllocatesNoIm2Col pins the suspect solve's memory: a
// serial solve of three taps of one filter on CIFAR-small's second conv
// (1024 output positions × 288 taps) allocates less than that layer's
// float32 im2col matrix, so it never materialises A or Aᵀ.
func TestConvSolveAllocatesNoIm2Col(t *testing.T) {
	m, err := nn.NewCIFARSmallNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(42)
	pr, err := NewProtector(m, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var convs []*layerPlan
	for _, lp := range pr.plan.layers {
		if lp.role == roleConv {
			convs = append(convs, lp)
		}
	}
	lp := convs[1]
	in, out, err := pr.GoldenPair(lp.idx)
	if err != nil {
		t.Fatal(err)
	}
	c := lp.conv
	taps, y := c.FilterSize()*c.FilterSize()*c.InChannels(), c.Filters()
	g2 := out.NumElements() / y
	if g2 != 1024 || taps != 288 {
		t.Fatalf("%s: %d positions × %d taps, want 1024 × 288", c.Name(), g2, taps)
	}
	w := c.Params().Data()
	clean := append([]float32(nil), w...)
	defer copy(w, clean)
	w[7*y+3] = 4
	im2col := uint64(g2 * taps * 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	exact, _, _, err := solveConvSuspects(lp, in, out, map[int][]int{3: {7, 100, 287}}, 0)
	runtime.ReadMemStats(&after)
	if err != nil || exact != 1 {
		t.Fatalf("solve: %d exact, %v", exact, err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	if got >= im2col {
		t.Fatalf("%s suspect solve allocated %d B, want less than its float32 im2col's %d B", c.Name(), got, im2col)
	}
	t.Logf("%s suspect solve allocated %d B; its float32 im2col is %d B", c.Name(), got, im2col)
}

// TestConvFullSolveMatchesOracle pins a full-mode conv heal, the
// suspect-set solve with every tap of each flagged filter suspect,
// bit-identical to the whole-filter oracle solveConvFull on every
// full-mode conv of tiny, MNIST and CIFAR-small, with its golden pair,
// at workers {1, 3, -1}: one filter, several, every filter, and NaN and
// ±Inf weights. Every case must rewrite weights, or the test is vacuous.
func TestConvFullSolveMatchesOracle(t *testing.T) {
	nets := []struct {
		name  string
		build func() (*nn.Model, error)
	}{{"tiny", nn.NewTinyNet}, {"mnist", nn.NewMNISTNet}, {"cifar-small", nn.NewCIFARSmallNet}}
	fullLayers := 0
	for _, net := range nets {
		m, err := net.build()
		if err != nil {
			t.Fatal(err)
		}
		m.InitWeights(42)
		pr, err := NewProtector(m, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for _, lp := range pr.plan.layers {
			if !lp.fullSolve() {
				continue
			}
			fullLayers++
			in, out, err := pr.GoldenPair(lp.idx)
			if err != nil {
				t.Fatal(err)
			}
			c := lp.conv
			taps, y := c.FilterSize()*c.FilterSize()*c.InChannels(), c.Filters()
			every := make([]int, y)
			for k := range every {
				every[k] = k
			}
			set := func(tap, filter int, v float32) func(w []float32) {
				return func(w []float32) { w[tap*y+filter] = v }
			}
			cases := []struct {
				name    string
				filters []int
				corrupt []func(w []float32)
			}{
				{"one filter", []int{y / 2}, []func([]float32){set(0, y/2, 3)}},
				{"several filters", []int{0, y / 3, y - 1},
					[]func([]float32){set(taps-1, 0, -2), set(1, y/3, 1.5), set(2, y/3, -4), set(taps/2, y-1, 0.75)}},
				{"every filter", every, []func([]float32){set(0, 0, 9), set(taps-1, y-1, -9)}},
				{"NaN and ±Inf", []int{1, 2, y - 1},
					[]func([]float32){set(0, 1, float32(math.NaN())), set(taps/2, 2, float32(math.Inf(1))), set(taps-1, y-1, float32(math.Inf(-1)))}},
			}
			w := c.Params().Data()
			clean := append([]float32(nil), w...)
			for _, tc := range cases {
				name := net.name + " " + c.Name() + " " + tc.name
				for _, workers := range []int{1, 3, -1} {
					for _, f := range tc.corrupt {
						f(w)
					}
					corrupted := append([]float32(nil), w...)
					if err := solveConvFull(lp, in, out, tc.filters, workers); err != nil {
						t.Fatalf("%s: oracle: %v", name, err)
					}
					want := append([]float32(nil), w...)
					copy(w, corrupted)
					m.SetWorkers(workers)
					res, err := pr.solveConvFinding(lp, LayerFinding{Layer: lp.idx, Name: c.Name(), Filters: tc.filters}, in, out)
					if err != nil || res.Status == Failed {
						t.Fatalf("%s, workers %d: %v %s", name, workers, err, res.Detail)
					}
					if res.Solved != len(tc.filters)*taps {
						t.Fatalf("%s, workers %d: solved %d, want %d", name, workers, res.Solved, len(tc.filters)*taps)
					}
					rewritten := 0
					for i := range w {
						if math.Float32bits(w[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s, workers %d: weight %d is %v, oracle %v", name, workers, i, w[i], want[i])
						}
						if math.Float32bits(want[i]) != math.Float32bits(corrupted[i]) {
							rewritten++
						}
					}
					if rewritten == 0 {
						t.Fatalf("%s: the oracle rewrote nothing; test is vacuous", name)
					}
					copy(w, clean)
				}
			}
		}
	}
	if fullLayers < 3 {
		t.Fatalf("%d full-mode conv layers, want one per net", fullLayers)
	}
}

// TestConvSolveBadSuspectsLeaveLayerUntouched: a filter or tap out of
// range fails the conv solve before it writes any weight. Through
// RecoverContext, a full-mode finding that lists filter 99 of a
// 32-filter layer reports Failed and leaves even its valid filter 0,
// corrupted, as it was; on a partial-mode layer, a tap or filter out
// of range does the same at the solver.
func TestConvSolveBadSuspectsLeaveLayerUntouched(t *testing.T) {
	m, err := nn.NewMNISTNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(42)
	pr, err := NewProtector(m, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	full := pr.plan.layers[0]
	if !full.fullSolve() {
		t.Fatal("MNIST conv2d is not full-mode")
	}
	w := full.conv.Params().Data()
	w[0] = 5
	before := append([]float32(nil), w...)
	rep, err := pr.RecoverContext(context.Background(), &DetectionReport{
		Findings: []LayerFinding{{Layer: 0, Name: full.conv.Name(), Filters: []int{0, 99}}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Status != Failed || rep.Results[0].Solved != 0 {
		t.Fatalf("results %+v, want one Failed with nothing solved", rep.Results)
	}
	for i := range w {
		if math.Float32bits(w[i]) != math.Float32bits(before[i]) {
			t.Fatalf("full mode: weight %d changed from %v to %v", i, before[i], w[i])
		}
	}

	part := pr.plan.layers[3]
	if !part.partialMode {
		t.Fatal("MNIST conv2d_1 is not partial-mode")
	}
	in, out, err := pr.GoldenPair(3)
	if err != nil {
		t.Fatal(err)
	}
	c := part.conv
	taps, y := c.FilterSize()*c.FilterSize()*c.InChannels(), c.Filters()
	w = c.Params().Data()
	w[0] = 5
	before = append([]float32(nil), w...)
	for name, suspects := range map[string]map[int][]int{
		"tap out of range":    {0: {0}, 1: {3, taps}},
		"negative tap":        {0: {0}, 1: {-1}},
		"filter out of range": {0: {0}, y: {0}},
	} {
		if _, _, _, err := solveConvSuspects(part, in, out, suspects, 0); err == nil {
			t.Errorf("partial mode, %s: solved without error", name)
		}
		for i := range w {
			if math.Float32bits(w[i]) != math.Float32bits(before[i]) {
				t.Fatalf("partial mode, %s: weight %d changed from %v to %v", name, i, before[i], w[i])
			}
		}
	}
}

// TestConvFullSolveSingularTakesPseudoInverse pins the one behaviour
// the merged conv solver changed: a full-mode layer whose golden im2col
// matrix is singular (here an all-zero golden input) used to fail its
// QR and report Failed; it now takes the least-squares best effort
// (the pseudo-inverse, rank 0 here), reports it in the detail as
// rank-deficient (a 676×9 system has more equations than taps, so it is
// not underdetermined), and verifies Approximate.
func TestConvFullSolveSingularTakesPseudoInverse(t *testing.T) {
	m, err := nn.NewMNISTNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(42)
	pr, err := NewProtector(m, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	lp := pr.plan.layers[0]
	in, out, err := pr.GoldenPair(0)
	if err != nil {
		t.Fatal(err)
	}
	zero := tensor.New(in.Shape()...)
	w := lp.conv.Params().Data()
	clean := append([]float32(nil), w...)
	defer copy(w, clean)
	if err := solveConvFull(lp, zero, out, []int{0}, 0); err == nil {
		t.Fatal("oracle solved a zero golden input; the case no longer pins the change")
	}
	copy(w, clean)
	res, err := pr.solveConvFinding(lp, LayerFinding{Layer: 0, Name: lp.conv.Name(), Filters: []int{0}}, zero, out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == Failed || res.Detail != "0 filters exact, least-squares: 0 underdetermined, 1 rank-deficient" {
		t.Fatalf("status %v, detail %q: want the least-squares best effort", res.Status, res.Detail)
	}
	if err := pr.verifyLayer(lp, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != Approximate {
		t.Fatalf("verified %v, want approximate", res.Status)
	}
}
