package core

import (
	"math"
	"testing"

	"milr/internal/nn"
	"milr/internal/tensor"
)

// checkConvSelectiveMatchesOracle corrupts lp's weights with corrupt,
// solves suspects from the same corrupted weights with the oracle
// (recover_oracle_test.go) and with solveConvSelective, and compares
// every weight bit and the exact/approximate counts. It returns how
// many weights the oracle rewrote and how many filters it solved
// approximately, and leaves the layer as it found it.
func checkConvSelectiveMatchesOracle(t *testing.T, name string, lp *layerPlan, in, out *tensor.Tensor,
	suspects map[int][]int, corrupt func(w []float32), opts Options) (rewritten, approximate int) {
	t.Helper()
	w := lp.conv.Params().Data()
	clean := append([]float32(nil), w...)
	defer copy(w, clean)
	corrupt(w)
	corrupted := append([]float32(nil), w...)
	wantExact, wantApprox, err := solveConvSelectiveOracle(lp, in, out, suspects, opts)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	want := append([]float32(nil), w...)
	copy(w, corrupted)
	exact, approx, err := solveConvSelective(lp, in, out, suspects, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if exact != wantExact || approx != wantApprox {
		t.Fatalf("%s, workers %d: %d exact, %d approximate; oracle %d, %d",
			name, opts.Workers, exact, approx, wantExact, wantApprox)
	}
	for i := range w {
		if math.Float32bits(w[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s, workers %d: weight %d is %v, oracle %v", name, opts.Workers, i, w[i], want[i])
		}
		if math.Float32bits(want[i]) != math.Float32bits(corrupted[i]) {
			rewritten++
		}
	}
	return rewritten, approx
}

// TestConvSelectiveSolveMatchesOracle pins the Aᵀ selective conv solve
// bit-identical to the per-row oracle on every conv layer of
// CIFAR-small, with its golden pair, at workers {1, 3, -1}: suspects at
// the first and last tap, adjacent ones and an empty list; NaN and ±Inf
// in suspect weights; a duplicated suspect, whose restricted system is
// singular and takes the ridge path; and, where a layer has fewer
// output positions than taps, every tap suspect, the minimum-norm path.
// Every case must rewrite weights, or the test is vacuous.
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
			minNormLayers++
		}
		for _, tc := range cases {
			for _, workers := range []int{1, 3, -1} {
				opts := pr.opts
				opts.Workers = workers
				name := c.Name() + " " + tc.name
				n, approx := checkConvSelectiveMatchesOracle(t, name, lp, in, out, tc.suspects, tc.corrupt, opts)
				if n == 0 {
					t.Fatalf("%s: the oracle rewrote nothing; test is vacuous", name)
				}
				// The duplicate's restricted system is singular:
				// LeastSquares refuses it and the ridge solve is
				// reported approximate.
				if tc.name == "duplicated suspect" && approx != 1 {
					t.Fatalf("%s: %d filters approximate, want 1 (the ridge path)", name, approx)
				}
			}
		}
	}
	if minNormLayers == 0 {
		t.Fatal("no layer took the minimum-norm path")
	}
}
