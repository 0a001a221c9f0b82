package tensor_test

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"milr/internal/prng"
	"milr/internal/tensor"
)

func randTensor(seed uint64, shape ...int) *tensor.Tensor {
	return prng.TensorFor(seed, 0xfeed, shape...)
}

// TestMatMulWorkersBitIdentical is the GEMM half of the parallel–serial
// equivalence contract: every worker count, every partition shape
// (tall, square, wide, single-row) must reproduce MatMul bit for bit.
func TestMatMulWorkersBitIdentical(t *testing.T) {
	dims := []struct{ m, n, p int }{
		{1, 64, 100},  // dense inference shape: column partition
		{3, 17, 5},    // fewer rows than workers
		{64, 32, 16},  // row partition
		{100, 1, 100}, // degenerate inner dim
		{33, 48, 1},   // single output column
	}
	counts := []int{0, 1, 2, 3, runtime.GOMAXPROCS(0), 16}
	for _, kernel := range tensor.HostKernels() {
		restore := tensor.SetKernel(kernel)
		for di, d := range dims {
			a := randTensor(uint64(di)+1, d.m, d.n)
			b := randTensor(uint64(di)+100, d.n, d.p)
			want, err := tensor.MatMul(a, b)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range counts {
				got, err := tensor.MatMulWorkers(a, b, w)
				if err != nil {
					t.Fatalf("dims %v workers %d: %v", d, w, err)
				}
				for i, v := range got.Data() {
					if v != want.Data()[i] {
						t.Fatalf("dims %v workers %d, %s kernel: element %d differs: %v vs %v",
							d, w, kernel, i, v, want.Data()[i])
					}
				}
			}
		}
		restore()
	}
}

// TestKernelSelected checks the CPUID probe against the kernel's own
// report: on linux/amd64, a CPU whose /proc/cpuinfo lists avx2 and fma
// must run the SIMD kernel. A wrong feature bit would otherwise drop
// the speed-up while every bit-identity test stays green.
func TestKernelSelected(t *testing.T) {
	t.Logf("GEMM kernel: %s", tensor.Kernel())
	if runtime.GOARCH != "amd64" {
		if got := tensor.Kernel(); got != "go" {
			t.Fatalf("Kernel() = %q on %s, want \"go\"", got, runtime.GOARCH)
		}
		return
	}
	if runtime.GOOS != "linux" {
		t.Skipf("no /proc/cpuinfo on %s", runtime.GOOS)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read the CPU flags: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("/proc/cpuinfo lists no CPU flags")
	}
	want := "go"
	if flags["avx2"] && flags["fma"] {
		want = "avx2-fma"
	}
	if got := tensor.Kernel(); got != want {
		t.Fatalf("Kernel() = %q, want %q (cpuinfo avx2=%v fma=%v)", got, want, flags["avx2"], flags["fma"])
	}
}

func TestMatMulWorkersShapeErrors(t *testing.T) {
	a := tensor.New(2, 3)
	b := tensor.New(4, 2)
	if _, err := tensor.MatMulWorkers(a, b, 2); err == nil {
		t.Error("inner-dim mismatch not detected")
	}
	if _, err := tensor.MatMulWorkers(tensor.New(2), b, 2); err == nil {
		t.Error("rank mismatch not detected")
	}
}

func BenchmarkMatMulWorkers(b *testing.B) {
	// im2col-shaped product from the CIFAR-large first conv:
	// (32·32, 3·3·64) × (3·3·64, 64).
	a := randTensor(1, 1024, 576)
	w := randTensor(2, 576, 64)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tensor.MatMulWorkers(a, w, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// refMatMul is the ikj kernel this package shipped before the
// register-tiled one, kept as the oracle: one float64 accumulator per
// output element starting at +0, k ascending, a[i][k] == 0 skipped.
// Every stored checkpoint and persisted protector blob was computed
// with this arithmetic, so the live kernel must reproduce it bit for
// bit.
func refMatMul(a, b []float32, m, n, p int) []float32 {
	c := make([]float32, m*p)
	acc := make([]float64, p)
	for i := 0; i < m; i++ {
		for j := range acc {
			acc[j] = 0
		}
		for k := 0; k < n; k++ {
			av := float64(a[i*n+k])
			if av == 0 {
				continue
			}
			brow := b[k*p : (k+1)*p]
			for j := 0; j < p; j++ {
				acc[j] += av * float64(brow[j])
			}
		}
		for j := 0; j < p; j++ {
			c[i*p+j] = float32(acc[j])
		}
	}
	return c
}

// gemmCase draws an (m,n)·(n,p) product's operands. zeroFrac of A's
// entries are zero. With special set, half of those zeros are -0, and B
// gets a NaN in column 0, both infinities in column 1 and +Inf in
// column 2. The NaN has a column of its own because the oracle compares
// bits: when an addition meets two different NaNs (B's, and the one
// Inf-Inf generates) the hardware keeps its first operand's payload,
// and which operand that is is the compiler's choice, not the kernel's.
func gemmCase(seed uint64, m, n, p int, zeroFrac float64, special bool) (a, b []float32) {
	st := prng.New(seed)
	a, b = make([]float32, m*n), make([]float32, n*p)
	negZero := float32(math.Copysign(0, -1))
	for i := range a {
		switch {
		case st.Float64() >= zeroFrac:
			a[i] = st.Uniform(-1, 1)
		case special && st.Intn(2) == 0:
			a[i] = negZero
		}
	}
	for i := range b {
		b[i] = st.Uniform(-1, 1)
	}
	if special && n > 0 && p > 0 {
		b[st.Intn(n)*p] = float32(math.NaN())
		if p > 1 {
			b[st.Intn(n)*p+1] = float32(math.Inf(1))
			b[st.Intn(n)*p+1] = float32(math.Inf(-1))
		}
		if p > 2 {
			b[st.Intn(n)*p+2] = float32(math.Inf(1))
		}
	}
	return a, b
}

// checkAgainstOracle runs the product on every kernel this host has and
// through every entry point — MatMulWorkers, and MatMulInto on a
// Scratch that earlier products have dirtied — and compares
// math.Float32bits of every element with refMatMul's.
func checkAgainstOracle(t testing.TB, a, b []float32, m, n, p, workers int, s *tensor.Scratch) {
	t.Helper()
	want := refMatMul(a, b, m, n, p)
	for _, kernel := range tensor.HostKernels() {
		restore := tensor.SetKernel(kernel)
		got := productsByEntryPoint(t, a, b, m, n, p, workers, s)
		restore()
		for name, c := range got {
			for i, w := range want {
				if g := c[i]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("(%d,%d)x(%d,%d) workers %d, %s kernel: %s element %d = %v (%#x), oracle %v (%#x)",
						m, n, n, p, workers, kernel, name, i, g, math.Float32bits(g), w, math.Float32bits(w))
				}
			}
		}
	}
}

// productsByEntryPoint computes a·b through each entry point, keyed by
// its name.
func productsByEntryPoint(t testing.TB, a, b []float32, m, n, p, workers int, s *tensor.Scratch) map[string][]float32 {
	t.Helper()
	got, err := tensor.MatMulWorkers(tensor.MustFromSlice(a, m, n), tensor.MustFromSlice(b, n, p), workers)
	if err != nil {
		t.Fatal(err)
	}
	into := make([]float32, m*p)
	for i := range into {
		into[i] = float32(math.NaN()) // the Into form must overwrite, not accumulate
	}
	if err := tensor.MatMulInto(into, a, b, m, n, p, workers, s); err != nil {
		t.Fatal(err)
	}
	return map[string][]float32{"MatMulWorkers": got.Data(), "MatMulInto": into}
}

// TestMatMulBitIdentity is the kernel's contract: on every shape class
// (both loop orders, ragged tiles, fewer rows than workers, a single
// inner term, widths on either side of the SIMD kernel's four-panel and
// one-panel tiles and its axpy tail) and on the exact products MNIST
// serving at batch 8 and CIFAR-small issue, at zero fractions
// {0, 0.5, 1}, with -0 in A and ±Inf/NaN in B, at workers {1,2,3,4},
// every output bit of both kernels equals the oracle's.
func TestMatMulBitIdentity(t *testing.T) {
	shapes := []struct {
		name    string
		m, n, p int
	}{
		{"empty", 0, 4, 4},
		{"no inner terms, tiled", 20, 0, 9},
		{"no inner terms, columns split", 1, 0, 88},
		{"tiled ragged", 19, 13, 11},
		{"tiled one column", 33, 48, 1},
		{"tiled n=1", 20, 1, 9},
		{"tiled at threshold", 16, 7, 17},
		{"stream below threshold", 15, 7, 17},
		{"stream m<workers", 3, 17, 5},
		{"stream n=1", 2, 1, 12},
		{"stream one row", 1, 64, 100},
		{"tiled four panels and one", 20, 9, 40},
		{"tiled cifar-large 80 filters", 20, 9, 80},
		{"tiled twelve panels", 17, 5, 96},
		{"tiled 255 columns", 16, 3, 255},
		{"stream axpy 6400", 8, 6400, 10},
		{"stream axpy 6400 tail", 8, 6400, 255},
		{"mnist conv0", 8 * 676, 9, 32},
		{"mnist conv1", 8 * 576, 288, 32},
		{"mnist conv2", 8 * 100, 288, 64},
		{"mnist dense0", 8, 6400, 256},
		{"mnist dense1", 8, 256, 10},
		{"cifar conv0", 1024, 27, 32},
		{"cifar conv1", 1024, 288, 32},
		{"cifar conv2", 256, 288, 64},
		{"cifar conv3", 256, 576, 64},
		{"cifar conv4", 64, 576, 128},
		{"cifar conv5", 64, 1152, 128},
		{"cifar conv6", 64, 1152, 128},
		{"cifar dense0", 1, 2048, 128},
		{"cifar dense1", 1, 128, 10},
	}
	var s tensor.Scratch
	for si, sh := range shapes {
		for zi, zeroFrac := range []float64{0, 0.5, 1} {
			// The specials touch columns 0 to 2 only; the rest of
			// each product is an ordinary one.
			a, b := gemmCase(uint64(si*10+zi), sh.m, sh.n, sh.p, zeroFrac, true)
			for _, workers := range []int{1, 2, 3, 4} {
				checkAgainstOracle(t, a, b, sh.m, sh.n, sh.p, workers, &s)
			}
		}
	}
}

// TestConvIntoMatchesIm2Col pins the convolution kernel, which never
// forms the im2col matrix, to the materialised lowering: each sample
// zero-padded (Pad2D), lowered (Im2Col) and multiplied with the filter
// matrix by the ikj oracle. Every output bit must match on both kernels
// at workers {0, 1, 2, -1}, through a nil Scratch and one dirtied by
// earlier calls of other shapes, with one GEMMCalls tick per call. The
// cases cover stride 2, Same and Valid padding, padding wider than the
// filter (whole window rows outside the input), non-square inputs,
// Z = 1, filter counts that are no multiple of 8 or 32, and a batch of
// one with fewer than 16 output positions. Inputs are half zeros, some
// of them −0; each filter matrix has a NaN in column 0, both
// infinities in column 1 and +Inf in column 2, all on corner taps,
// which the border outputs of a padded conv read as padding: a padded
// tap must never become a 0·Inf term.
func TestConvIntoMatchesIm2Col(t *testing.T) {
	cases := []struct {
		name                     string
		b, h, w, z, f, s, pad, y int
	}{
		{"same 3x3", 3, 8, 8, 3, 3, 1, 1, 8},
		{"valid 5x5 z=1", 2, 12, 10, 1, 5, 1, 0, 9},
		{"valid stride 2", 2, 9, 9, 2, 3, 2, 0, 5},
		{"valid stride 2 non-square", 2, 6, 13, 2, 3, 2, 0, 37},
		{"same non-square z=1", 2, 7, 11, 1, 3, 1, 1, 33},
		{"same 5x5 four panels and one", 2, 6, 5, 3, 5, 1, 2, 40},
		{"same batch 1, G²=9", 1, 3, 3, 4, 3, 1, 1, 12},
		{"valid batch 1, G²=4", 1, 4, 5, 2, 3, 1, 0, 3},
		{"padding wider than the filter", 2, 2, 3, 2, 3, 2, 3, 6},
		{"1x1", 3, 4, 6, 3, 1, 1, 0, 7},
	}
	var dirty tensor.Scratch
	negZero := float32(math.Copysign(0, -1))
	for ci, c := range cases {
		st := prng.New(uint64(ci) + 1)
		x := make([]float32, c.b*c.h*c.w*c.z)
		for i := range x {
			switch st.Intn(4) {
			case 0:
				x[i] = negZero
			case 1:
			default:
				x[i] = st.Uniform(-1, 1)
			}
		}
		n := c.f * c.f * c.z
		filt := make([]float32, n*c.y)
		for i := range filt {
			filt[i] = st.Uniform(-1, 1)
		}
		tap := func(f1, f2, ch int) int { return (f1*c.f+f2)*c.z + ch }
		if c.y > 2 {
			filt[tap(0, 0, 0)*c.y] = float32(math.NaN())
			filt[tap(0, c.f-1, c.z-1)*c.y+1] = float32(math.Inf(1))
			filt[tap(c.f-1, 0, 0)*c.y+1] = float32(math.Inf(-1))
			filt[tap(c.f-1, c.f-1, c.z-1)*c.y+2] = float32(math.Inf(1))
		}
		var want []float32
		per := c.h * c.w * c.z
		for r := 0; r < c.b; r++ {
			padded, err := tensor.Pad2D(tensor.MustFromSlice(x[r*per:(r+1)*per], c.h, c.w, c.z), c.pad)
			if err != nil {
				t.Fatal(err)
			}
			cols, err := tensor.Im2Col(padded, c.f, c.s)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, refMatMul(cols.Data(), filt, cols.Dim(0), n, c.y)...)
		}
		g := tensor.Conv{H: c.h, W: c.w, Z: c.z, F: c.f, Stride: c.s, Pad: c.pad, Y: c.y}
		for _, kernel := range tensor.HostKernels() {
			restore := tensor.SetKernel(kernel)
			for _, workers := range []int{0, 1, 2, -1} {
				for _, s := range []*tensor.Scratch{nil, &dirty} {
					got := make([]float32, len(want))
					for i := range got {
						got[i] = float32(math.NaN()) // must overwrite, not accumulate
					}
					calls := tensor.GEMMCalls()
					if err := tensor.ConvInto(got, x, filt, c.b, g, workers, s); err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					if d := tensor.GEMMCalls() - calls; d != 1 {
						t.Fatalf("%s: %d GEMM calls, want 1", c.name, d)
					}
					for i, w := range want {
						if math.Float32bits(got[i]) != math.Float32bits(w) {
							t.Fatalf("%s, %s kernel, workers %d, scratch %v: element %d = %v (%#x), oracle %v (%#x)",
								c.name, kernel, workers, s != nil, i, got[i], math.Float32bits(got[i]), w, math.Float32bits(w))
						}
					}
				}
			}
			restore()
		}
	}
	g := tensor.Conv{H: 2, W: 2, Z: 3, F: 3, Stride: 1, Y: 1}
	if err := tensor.ConvInto(make([]float32, 0), make([]float32, 12), make([]float32, 27), 1, g, 1, nil); err == nil {
		t.Error("filter larger than the input not detected")
	}
	g.Pad = 1
	if err := tensor.ConvInto(make([]float32, 4), make([]float32, 12), make([]float32, 27), 1, g, 1, nil); err != nil {
		t.Errorf("fitting buffers rejected: %v", err)
	}
	if err := tensor.ConvInto(make([]float32, 3), make([]float32, 12), make([]float32, 27), 1, g, 1, nil); err == nil {
		t.Error("short destination not detected")
	}
	if err := tensor.ConvInto(make([]float32, 4), make([]float32, 11), make([]float32, 27), 1, g, 1, nil); err == nil {
		t.Error("short input not detected")
	}
	g.Stride = 0
	if err := tensor.ConvInto(make([]float32, 4), make([]float32, 12), make([]float32, 27), 1, g, 1, nil); err == nil {
		t.Error("stride 0 not detected")
	}
}

func TestMatMulIntoRejectsMisfitBuffers(t *testing.T) {
	a, b, c := make([]float32, 6), make([]float32, 12), make([]float32, 8)
	if err := tensor.MatMulInto(c, a, b, 2, 3, 4, 1, nil); err != nil {
		t.Errorf("fitting buffers rejected: %v", err)
	}
	if err := tensor.MatMulInto(c[:7], a, b, 2, 3, 4, 1, nil); err == nil {
		t.Error("short destination not detected")
	}
	if err := tensor.MatMulInto(c, a, b, 2, 4, 3, 1, nil); err == nil {
		t.Error("mismatched inner dimension not detected")
	}
}

// FuzzMatMulBitIdentity drives the same oracle from fuzzed shapes,
// zero fractions and worker counts.
func FuzzMatMulBitIdentity(f *testing.F) {
	f.Add(uint64(1), uint8(19), uint8(13), uint8(11), uint8(128), uint8(2), true)
	f.Add(uint64(2), uint8(3), uint8(200), uint8(40), uint8(0), uint8(4), false)
	f.Add(uint64(3), uint8(16), uint8(1), uint8(8), uint8(255), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed uint64, m, n, p, zeros, workers uint8, special bool) {
		a, b := gemmCase(seed, int(m), int(n), int(p), float64(zeros)/255, special)
		checkAgainstOracle(t, a, b, int(m), int(n), int(p), int(workers%5), nil)
	})
}

// subScaledSpecials are the values SubScaledBand's two kernels could
// round or propagate differently: NaNs with distinct payloads (a
// signalling one among them), ±Inf, ±0, the extreme subnormals and
// values whose product overflows or underflows.
var subScaledSpecials = []float64{
	math.Float64frombits(0x7ff8000000000001),
	math.Float64frombits(0xfff80000deadbeef),
	math.Float64frombits(0x7ff0000000000123),
	math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64, 1e-300, -3e-200, 1, -1.5,
}

// TestSubScaledMatchesGo pins the single scaled-row subtract,
// SubScaledBand with one value, to the expression
// dst[i] - float64(a*x[i]) on the Go kernel and the SIMD kernel to the
// Go kernel, bit for bit: every length 0–67 (the SIMD body's 16-wide,
// 4-wide and scalar tails), a ring of one row and of two (so x is
// followed by a row that must not be read into dst), and the specials
// in dst, x and a. Where a and x[i] are both NaN, Go leaves the
// product's payload to the compiler's operand order, so the expression
// only fixes that the result is a NaN; the two kernels must still agree
// on its bits. The test also checks that nothing past len(dst) is
// written and that x is only read.
func TestSubScaledMatchesGo(t *testing.T) {
	st := prng.New(37)
	draw := func() float64 {
		if st.Intn(3) == 0 {
			return subScaledSpecials[st.Intn(len(subScaledSpecials))]
		}
		return 4*st.Float64() - 2
	}
	kernels := tensor.HostKernels()
	as := append([]float64{0.75, -2.5e-3}, subScaledSpecials...)
	for n := 0; n <= 67; n++ {
		for _, rows := range []int{1, 2} {
			for ai, a := range as {
				buf := make([]float64, n+3)
				x := make([]float64, rows*n)
				for i := range buf {
					buf[i] = draw()
				}
				for i := range x {
					x[i] = draw()
				}
				want := append([]float64(nil), buf...)
				for i := 0; i < n; i++ {
					want[i] -= float64(a * x[i])
				}
				xWas := append([]float64(nil), x...)
				var goBits []float64
				for _, kernel := range kernels {
					got := append([]float64(nil), buf...)
					restore := tensor.SetKernel(kernel)
					tensor.SubScaledBand(got[:n], x, []float64{a}, 0)
					restore()
					for i := range got {
						g, w := math.Float64bits(got[i]), math.Float64bits(want[i])
						bothNaN := i < n && math.IsNaN(a) && math.IsNaN(x[i])
						ok := g == w || bothNaN && math.IsNaN(got[i])
						if kernel != "go" { // HostKernels lists "go" first
							w = math.Float64bits(goBits[i])
							ok = g == w
						}
						if !ok {
							t.Fatalf("%s kernel, len %d, %d rows, a #%d (%v): element %d is %#x, want %#x",
								kernel, n, rows, ai, a, i, g, w)
						}
					}
					if kernel == "go" {
						goBits = got
					}
					for i := range x {
						if math.Float64bits(x[i]) != math.Float64bits(xWas[i]) {
							t.Fatalf("%s kernel, len %d: x[%d] written", kernel, n, i)
						}
					}
				}
			}
		}
	}
}

// TestSubScaledBandMatchesSubScaledLoop pins SubScaledBand to the
// scalar loop acc[j] -= float64(vals[k]*row[j]), row = ring row
// (first+k) mod rows, k ascending: the Go kernel to the loop, and the
// SIMD kernel to the Go kernel, bit for bit. It covers every width 0–67
// (the SIMD body's 16-wide, 4-wide and scalar tails) and 128 and 256,
// every first row (and first past the ring, which wraps), vals empty,
// shorter than the ring, as long and longer, and the specials in acc,
// ring and vals, so a NaN meets a NaN in the product and in the
// difference. Where vals[k] and the row value are both NaN, Go leaves
// the product's payload to the compiler's operand order, so for such an
// element the loop only fixes that the result is a NaN; the two
// kernels must still agree on its bits. It checks that nothing past acc
// is written and ring and vals are only read.
func TestSubScaledBandMatchesSubScaledLoop(t *testing.T) {
	st := prng.New(41)
	draw := func() float64 {
		if st.Intn(3) == 0 {
			return subScaledSpecials[st.Intn(len(subScaledSpecials))]
		}
		return 4*st.Float64() - 2
	}
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = draw()
		}
		return v
	}
	kernels := tensor.HostKernels()
	widths := []int{128, 256}
	for w := 0; w <= 67; w++ {
		widths = append(widths, w)
	}
	for _, w := range widths {
		for _, rows := range []int{1, 2, 7, 32} {
			for first := 0; first <= rows; first++ {
				for _, nv := range []int{0, 1, rows - 1, rows, rows + 3} {
					buf := fill(w + 3)
					ring := fill(rows * w)
					vals := fill(nv)
					want := append([]float64(nil), buf...)
					nanTimesNaN := make([]bool, w)
					for k, a := range vals {
						r := (first + k) % rows
						for j, v := range ring[r*w : (r+1)*w] {
							want[j] -= float64(a * v)
							nanTimesNaN[j] = nanTimesNaN[j] || math.IsNaN(a) && math.IsNaN(v)
						}
					}
					ringWas := append([]float64(nil), ring...)
					valsWas := append([]float64(nil), vals...)
					var goBits []float64
					for _, kernel := range kernels {
						got := append([]float64(nil), buf...)
						restore := tensor.SetKernel(kernel)
						tensor.SubScaledBand(got[:w], ring, vals, first)
						restore()
						for i := range got {
							g, e := math.Float64bits(got[i]), math.Float64bits(want[i])
							ok := g == e || i < w && nanTimesNaN[i] && math.IsNaN(got[i])
							if kernel != "go" { // HostKernels lists "go" first
								e = math.Float64bits(goBits[i])
								ok = g == e
							}
							if !ok {
								t.Fatalf("%s kernel, width %d, rows %d, first %d, %d vals: element %d is %#x, want %#x",
									kernel, w, rows, first, nv, i, g, e)
							}
						}
						if kernel == "go" {
							goBits = got
						}
						for _, c := range []struct {
							name     string
							now, was []float64
						}{{"ring", ring, ringWas}, {"vals", vals, valsWas}} {
							for i := range c.now {
								if math.Float64bits(c.now[i]) != math.Float64bits(c.was[i]) {
									t.Fatalf("%s kernel, width %d, rows %d: %s[%d] written", kernel, w, rows, c.name, i)
								}
							}
						}
					}
				}
			}
		}
	}
	panics := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	for _, c := range []struct {
		name            string
		acc, ring, vals []float64
		first           int
		want            string // a substring of the panic; "" for none
	}{
		{"negative first", make([]float64, 4), make([]float64, 8), make([]float64, 1), -1, "first -1"},
		{"negative first, empty acc", nil, nil, nil, -1, "first -1"},
		{"partial row", make([]float64, 4), make([]float64, 6), make([]float64, 1), 0, "whole number"},
		{"empty ring", make([]float64, 4), nil, make([]float64, 1), 0, "whole number"},
		{"empty ring, empty vals", make([]float64, 4), nil, nil, 0, "whole number"},
		{"empty acc", nil, make([]float64, 5), make([]float64, 3), 2, ""},
	} {
		for _, kernel := range kernels {
			restore := tensor.SetKernel(kernel)
			msg := panics(func() { tensor.SubScaledBand(c.acc, c.ring, c.vals, c.first) })
			restore()
			if (msg == "") != (c.want == "") || !strings.Contains(msg, c.want) {
				t.Errorf("%s kernel, %s: panic %q, want %q", kernel, c.name, msg, c.want)
			}
		}
	}
}
