package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"milr/internal/faults"
	"milr/internal/nn"
	"milr/internal/prng"
	"milr/internal/tensor"
)

// Tests for the dense column solve: bit-identity against the per-column
// oracle (recover_oracle_test.go), the all-or-nothing outcome of a bad
// column list, and the allocation bound of a warm dense-layer heal; and
// for the dense dummy outputs, bit-identity against their scalar loop.

// denseProtector protects a fresh model built by build.
func denseProtector(t *testing.T, build func() (*nn.Model, error)) (*nn.Model, *Protector) {
	t.Helper()
	m, err := build()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(42)
	pr, err := NewProtector(m, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return m, pr
}

// largestDensePlan returns the plan of the protected model's largest
// dense layer.
func largestDensePlan(t *testing.T, pr *Protector) *layerPlan {
	t.Helper()
	var best *layerPlan
	for _, lp := range pr.plan.layers {
		if lp.role == roleDense && (best == nil || lp.dense.ParamCount() > best.dense.ParamCount()) {
			best = lp
		}
	}
	if best == nil {
		t.Fatal("model has no dense layer")
	}
	return best
}

// checkDenseSolveMatchesOracle rebuilds lp's dense dummy outputs with
// band, overwrites lp's layer, solves cols from the same corrupted
// weights with the oracle and with solveDenseColumns, and compares every
// weight bit. It leaves the layer and its dummy outputs as it found them.
func checkDenseSolveMatchesOracle(t *testing.T, lp *layerPlan, cols []int, band int, seed uint64, workers int) {
	t.Helper()
	stored := lp.denseDummyOut
	defer func() { lp.denseDummyOut = stored }()
	var err error
	if lp.denseDummyOut, err = denseDummyOutputs(lp.dense, seed, lp.tag(tagDenseDummy), band); err != nil {
		t.Fatal(err)
	}
	w := lp.dense.Params().Data()
	clean := append([]float32(nil), w...)
	defer copy(w, clean)
	faults.New(uint64(len(cols))).OverwriteLayer(lp.dense)
	corrupt := append([]float32(nil), w...)
	if err := solveDenseColumnsOracle(lp, cols, band, seed, workers); err != nil {
		t.Fatal(err)
	}
	want := append([]float32(nil), w...)
	copy(w, corrupt)
	if err := solveDenseColumns(lp, cols, band, seed, workers); err != nil {
		t.Fatal(err)
	}
	rewritten := 0
	for i := range w {
		if math.Float32bits(w[i]) != math.Float32bits(want[i]) {
			t.Fatalf("band %d, workers %d, columns %v: weight %d is %v, oracle %v",
				band, workers, cols, i, w[i], want[i])
		}
		if math.Float32bits(want[i]) != math.Float32bits(corrupt[i]) {
			rewritten++
		}
	}
	if rewritten == 0 {
		t.Fatalf("band %d, workers %d, columns %v: the oracle rewrote nothing; test is vacuous",
			band, workers, cols)
	}
}

// TestDenseSolveMatchesOracle pins the blocked dense solve bit-identical
// to the per-column oracle. The recovery equivalence tests cannot: both
// of their pipelines call solveDenseColumns. Tiny's 128×16 layer covers
// bands shorter than, equal to (denseBand) and longer than the layer,
// at several worker counts (blocks of one column up to the whole list)
// and column lists that are full, single, unsorted and strided; MNIST's
// 6400×256 layer is the benchmark's heal.
func TestDenseSolveMatchesOracle(t *testing.T) {
	_, pr := denseProtector(t, nn.NewTinyNet)
	lp := largestDensePlan(t, pr)
	p := lp.dense.Out()
	var all, odd []int
	for j := 0; j < p; j++ {
		all = append(all, j)
		if j%2 == 1 {
			odd = append(odd, j)
		}
	}
	for _, band := range []int{2, 7, 32, 1 << 20} {
		for _, cols := range [][]int{all, {p / 3}, {p - 1, 2, p / 2, 0, 5}, odd} {
			for _, workers := range []int{1, 3, -1} {
				checkDenseSolveMatchesOracle(t, lp, cols, band, pr.opts.Seed, workers)
			}
		}
	}
	_, pr = denseProtector(t, nn.NewMNISTNet)
	lp = largestDensePlan(t, pr)
	all = make([]int, lp.dense.Out())
	for j := range all {
		all[j] = j
	}
	checkDenseSolveMatchesOracle(t, lp, all, denseBand, pr.opts.Seed, -1)
}

// TestDenseSolveBadColumnLeavesLayerUntouched: a column list with an
// entry out of range is an error and writes nothing, not even the
// columns in range, so a layer reported Failed is never half rewritten.
func TestDenseSolveBadColumnLeavesLayerUntouched(t *testing.T) {
	_, pr := denseProtector(t, nn.NewTinyNet)
	lp := largestDensePlan(t, pr)
	p := lp.dense.Out()
	w := lp.dense.Params().Data()
	w[0] += 25 // column 0 is corrupt: solving it would rewrite w[0]
	before := append([]float32(nil), w...)
	for _, cols := range [][]int{{p, 0}, {0, -1}} {
		if err := solveDenseColumns(lp, cols, denseBand, pr.opts.Seed, 0); err == nil {
			t.Fatalf("columns %v: no error", cols)
		}
		for i := range w {
			if math.Float32bits(w[i]) != math.Float32bits(before[i]) {
				t.Fatalf("columns %v: weight %d rewritten %v → %v", cols, i, before[i], w[i])
			}
		}
	}
}

// TestDenseHealAllocationBound pins the blocked solve's point: a warm
// self-heal of MNIST's overwritten 6400×256 dense layer, detection
// included, allocates a few megabytes, where regenerating every dummy
// row once per column allocated 905 MB.
func TestDenseHealAllocationBound(t *testing.T) {
	m, pr := denseProtector(t, nn.NewMNISTNet)
	lp := largestDensePlan(t, pr)
	clean := m.Snapshot()
	ctx := context.Background()
	heal := func(seed uint64) uint64 {
		faults.New(seed).OverwriteLayer(lp.dense)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, rec, err := pr.SelfHealContext(ctx)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		healed := false
		for _, r := range rec.Results {
			healed = healed || r.Layer == lp.idx && r.Status == Recovered
		}
		if !healed {
			t.Fatalf("dense layer %d not recovered: %+v", lp.idx, rec.Results)
		}
		if err := m.Restore(clean); err != nil {
			t.Fatal(err)
		}
		pr.ResetCRC()
		return after.TotalAlloc - before.TotalAlloc
	}
	heal(1) // sizes the model's workspaces
	const bound = 8 << 20
	for seed := uint64(2); seed <= 3; seed++ {
		b := heal(seed)
		t.Logf("warm dense-layer heal %d: %.2f MB", seed, float64(b)/(1<<20))
		if b > bound {
			t.Errorf("warm dense-layer heal allocated %.1f MB, want at most %d MB", float64(b)/(1<<20), bound>>20)
		}
	}
}

// denseDummyOutputsOracle is denseDummyOutputs as it was before it ran
// on the subtract kernels: one scalar multiply-add per element, k
// ascending from +0, each weight widened once per dummy row that reads
// it. Only the product's conversion is new: float64(v·w) stops a port
// that fuses from rounding v·w + acc once, which amd64 never did.
func denseDummyOutputsOracle(d *nn.Dense, seed, tag uint64, band int) *tensor.Tensor {
	n, p := d.In(), d.Out()
	w := d.Params().Data()
	out := tensor.New(n, p)
	od := out.Data()
	acc := make([]float64, p)
	buf := make([]float64, min(band, n))
	for i := 0; i < n; i++ {
		vals := denseDummyRowInto(buf, seed, tag, i, n, band)
		clear(acc)
		for k, v := range vals {
			row := w[(i+k)*p : (i+k+1)*p]
			for j := 0; j < p; j++ {
				acc[j] += float64(v * float64(row[j]))
			}
		}
		for j := 0; j < p; j++ {
			od[i*p+j] = float32(acc[j])
		}
	}
	return out
}

// TestDenseDummyOutputsMatchOracle pins the stored dense dummy outputs
// bit-identical to the scalar loop: the zoo's largest dense layers
// (MNIST's 6400×256, CIFAR-small's 2048×128, tiny's), a layer narrower
// than the band, widths that are not a multiple of the SIMD loop's 4 or
// 16, and weights that are NaN, ±Inf and ±0, at the engine's band and
// bands shorter and longer. Any NaN matches any NaN: which NaN a sum of
// two returns depends on the operand order the compiler picked.
func TestDenseDummyOutputsMatchOracle(t *testing.T) {
	type tc struct {
		name string
		d    *nn.Dense
	}
	var cases []tc
	for _, net := range []struct {
		name  string
		build func() (*nn.Model, error)
	}{{"mnist", nn.NewMNISTNet}, {"cifar-small", nn.NewCIFARSmallNet}, {"tiny", nn.NewTinyNet}} {
		m, err := net.build()
		if err != nil {
			t.Fatal(err)
		}
		m.InitWeights(42)
		var best *nn.Dense
		for _, l := range m.Layers() {
			if d, ok := l.(*nn.Dense); ok && (best == nil || d.ParamCount() > best.ParamCount()) {
				best = d
			}
		}
		cases = append(cases, tc{net.name, best})
	}
	s := prng.New(48)
	random := func(n, p int) *nn.Dense {
		d, err := nn.NewDense(n, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range d.Params().Data() {
			d.Params().Data()[i] = s.Uniform(-1, 1)
		}
		return d
	}
	cases = append(cases,
		tc{"narrower-than-band-5x13", random(5, 13)},
		tc{"p=1", random(40, 1)},
		tc{"p=21", random(70, 21)},
		tc{"p=35", random(33, 35)})
	special := random(64, 19)
	w := special.Params().Data()
	bad := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1))}
	for i := 0; i < 60; i++ {
		w[s.Intn(len(w))] = bad[i%len(bad)]
	}
	for i := 0; i < 64; i++ {
		w[i*19+3] = float32(math.Copysign(0, -1)) // a column of −0
		w[i*19+11] = float32(math.Inf(1))         // a column of +Inf
	}
	cases = append(cases, tc{"nan-inf-zero", special})

	for _, c := range cases {
		for _, band := range []int{denseBand, 2, 7, 1 << 20} {
			if c.d.In() > 2048 && band != denseBand {
				continue // the large layers run at the engine's band only
			}
			want := denseDummyOutputsOracle(c.d, 42, 7, band).Data()
			got, err := denseDummyOutputs(c.d, 42, 7, band)
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range got.Data() {
				if math.Float32bits(g) != math.Float32bits(want[i]) && !(g != g && want[i] != want[i]) {
					t.Fatalf("%s band %d: output %d = %v [%#x], oracle %v [%#x]",
						c.name, band, i, g, math.Float32bits(g), want[i], math.Float32bits(want[i]))
				}
			}
		}
	}
}
