package linalg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"milr/internal/nn"
	"milr/internal/prng"
)

// factorQRPivotOracle is FactorQRPivot as it was before its passes swept
// rows: every column norm a fresh math.Hypot fold down the column, every
// dot product and update a walk down one column at a time. Only the
// returns changed, to hand back the whole factor, and it records the
// permutation and R's diagonal as it goes. It is the bit oracle for
// FactorQRPivot.
func factorQRPivotOracle(a *Matrix, rtol float64) (*QRP, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: pivoted QR requires rows ≥ cols, got %dx%d", a.Rows, a.Cols)
	}
	if rtol <= 0 {
		rtol = 1e-10
	}
	m, n := a.Rows, a.Cols
	qr := a.Clone()
	perm, rdia := make([]int, n), make([]float64, n)
	for j := range perm {
		perm[j] = j
	}
	colNorm := func(col, fromRow int) float64 {
		var s float64
		for i := fromRow; i < m; i++ {
			s = math.Hypot(s, qr.At(i, col))
		}
		return s
	}
	var maxNorm float64
	for j := 0; j < n; j++ {
		if v := colNorm(j, 0); v > maxNorm {
			maxNorm = v
		}
	}
	if maxNorm == 0 {
		return &QRP{qr: qr, rdia: rdia, perm: perm}, nil
	}
	rank := 0
	for k := 0; k < n; k++ {
		// Pivot: bring the column with the largest remaining norm to k.
		best, bestNorm := k, colNorm(k, k)
		for j := k + 1; j < n; j++ {
			if v := colNorm(j, k); v > bestNorm {
				best, bestNorm = j, v
			}
		}
		if bestNorm <= rtol*maxNorm {
			break
		}
		if best != k {
			for i := 0; i < m; i++ {
				vk, vb := qr.At(i, k), qr.At(i, best)
				qr.Set(i, k, vb)
				qr.Set(i, best, vk)
			}
			perm[k], perm[best] = perm[best], perm[k]
		}
		norm := bestNorm
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		rdia[k] = -norm
		rank = k + 1
	}
	return &QRP{qr: qr, rdia: rdia, perm: perm, rank: rank}, nil
}

// factorQROracle is FactorQR as it was before its passes swept rows,
// verbatim: the bit oracle for FactorQR.
func factorQROracle(a *Matrix) (*QR, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: QR requires rows ≥ cols, got %dx%d", a.Rows, a.Cols)
	}
	m, n := a.Rows, a.Cols
	qr := a.Clone()
	rdia := make([]float64, n)
	tol := a.MaxAbs() * float64(m) * 1e-14
	if tol == 0 {
		tol = 1e-300
	}
	for k := 0; k < n; k++ {
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if norm < tol {
			return nil, fmt.Errorf("column %d below tolerance %.3e: %w", k, tol, ErrSingular)
		}
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		rdia[k] = -norm
	}
	return &QR{qr: qr, rdia: rdia}, nil
}

// oracleCases are the inputs both QR factorizations are checked on:
// full-rank tall and square matrices, exact low-rank products, repeated
// and zero columns, an all-zero matrix, im2col-like inputs with many
// zero taps, non-finite entries, subnormal columns, and a matrix whose
// numerical rank depends on the tolerance. Each case gets a fresh matrix, so
// a factorization that wrote through its input would show.
func oracleCases() []struct {
	name string
	a    *Matrix
} {
	s := prng.New(4040)
	type tc = struct {
		name string
		a    *Matrix
	}
	var cases []tc
	for _, sh := range [][2]int{{1, 1}, {7, 3}, {40, 12}, {16, 16}, {33, 33}, {150, 40}, {96, 27}} {
		cases = append(cases, tc{fmt.Sprintf("random%dx%d", sh[0], sh[1]), randMatrix(s, sh[0], sh[1])})
	}
	for _, r := range []int{1, 3, 9} {
		u, v := randMatrix(s, 60, r), randMatrix(s, r, 14)
		uv, err := u.Mul(v)
		if err != nil {
			panic(err)
		}
		cases = append(cases, tc{fmt.Sprintf("lowrank%d", r), uv})
	}
	dup := randMatrix(s, 30, 8)
	zero := randMatrix(s, 30, 8)
	for i := 0; i < 30; i++ {
		dup.Set(i, 5, dup.At(i, 1))
		dup.Set(i, 7, dup.At(i, 1))
		zero.Set(i, 0, 0)
		zero.Set(i, 4, 0)
	}
	cases = append(cases, tc{"duplicate-columns", dup}, tc{"zero-columns", zero}, tc{"all-zero", NewMatrix(9, 4)})
	// A golden im2col: ReLU-like non-negative values, about half zero.
	sparse := NewMatrix(64, 18)
	for i := range sparse.Data {
		if v := s.Float64()*2 - 1; v > 0 {
			sparse.Data[i] = v
		}
	}
	cases = append(cases, tc{"half-zero", sparse})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := randMatrix(s, 20, 6)
		a.Set(s.Intn(20), s.Intn(6), bad)
		cases = append(cases, tc{fmt.Sprintf("entry%v", bad), a})
	}
	// NaN and ±Inf together: in one column, in separate columns, and a
	// row that is all three.
	mixed := randMatrix(s, 24, 7)
	mixed.Set(3, 1, math.NaN())
	mixed.Set(9, 1, math.Inf(1))
	mixed.Set(5, 4, math.Inf(-1))
	mixed.Set(17, 6, math.Inf(1))
	mixed.Set(20, 0, math.NaN())
	mixed.Set(20, 2, math.Inf(-1))
	mixed.Set(20, 3, math.Inf(1))
	cases = append(cases, tc{"nan-and-inf", mixed})
	// One all-zero column, last, so the pivot must move it.
	oneZero := randMatrix(s, 25, 9)
	for i := 0; i < 25; i++ {
		oneZero.Set(i, 8, 0)
	}
	cases = append(cases, tc{"one-zero-column", oneZero})
	// A column of subnormals, and one mixing subnormals with normal
	// values: the norm folds divide by and square subnormal ratios.
	sub := randMatrix(s, 30, 6)
	for i := 0; i < 30; i++ {
		sub.Set(i, 2, (2*s.Float64()-1)*0x1p-1060)
		if i%3 == 0 {
			sub.Set(i, 5, (2*s.Float64()-1)*0x1p-1070)
		}
	}
	cases = append(cases, tc{"subnormal-column", sub})
	// All subnormal, so the reflectors are built from them too.
	allSub := randMatrix(s, 12, 4)
	for i := range allSub.Data {
		allSub.Data[i] *= 0x1p-1040
	}
	cases = append(cases, tc{"all-subnormal", allSub})
	// Rank 5 plus a 1e-9 perturbation: full rank at rtol 1e-10, rank 5
	// at 1e-6, the engine's rankTol.
	u, v := randMatrix(s, 50, 5), randMatrix(s, 5, 12)
	near, err := u.Mul(v)
	if err != nil {
		panic(err)
	}
	for i := range near.Data {
		near.Data[i] += 1e-9 * (2*s.Float64() - 1)
	}
	cases = append(cases, tc{"rank-deficient-at-1e-6", near})
	return cases
}

// sameBits reports the first index at which two slices differ in their
// IEEE-754 bits, or -1. Any NaN matches any NaN: Go leaves unspecified
// which NaN an operation on two NaNs returns, and on amd64 it is
// whichever operand the compiler made the destination of a commutative
// ADDSD, which a memory operand alone can change.
func sameBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i, g := range got {
		if math.Float64bits(g) != math.Float64bits(want[i]) && !(math.IsNaN(g) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

func TestFactorQRPivotMatchesOracle(t *testing.T) {
	for _, c := range oracleCases() {
		for _, rtol := range []float64{1e-6, 1e-10, 0.3, 0, -1} {
			in := c.a.Clone()
			want, wantErr := factorQRPivotOracle(c.a, rtol)
			got, gotErr := FactorQRPivot(c.a, rtol)
			if sameBits(c.a.Data, in.Data) >= 0 {
				t.Fatalf("%s rtol=%g: input was modified", c.name, rtol)
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s rtol=%g: err %v, oracle %v", c.name, rtol, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if got.Rank() != want.rank {
				t.Errorf("%s rtol=%g: rank %d, oracle %d", c.name, rtol, got.Rank(), want.rank)
			}
			if i := sameBits(got.qr.Data, want.qr.Data); i >= 0 {
				t.Errorf("%s rtol=%g: factor entry %d = %v, oracle %v", c.name, rtol, i, got.qr.Data[i], want.qr.Data[i])
			}
			if i := sameBits(got.rdia, want.rdia); i >= 0 {
				t.Errorf("%s rtol=%g: rdia[%d] = %v, oracle %v", c.name, rtol, i, got.rdia[i], want.rdia[i])
			}
			if !slices.Equal(got.perm, want.perm) {
				t.Errorf("%s rtol=%g: perm %v, oracle %v", c.name, rtol, got.perm, want.perm)
			}
		}
	}
	if _, err := FactorQRPivot(NewMatrix(2, 3), 0); err == nil {
		t.Error("wide matrix: want the rows ≥ cols error")
	}
}

func TestFactorQRMatchesOracle(t *testing.T) {
	for _, c := range oracleCases() {
		in := c.a.Clone()
		want, wantErr := factorQROracle(c.a)
		got, gotErr := FactorQR(c.a)
		if sameBits(c.a.Data, in.Data) >= 0 {
			t.Fatalf("%s: input was modified", c.name)
		}
		if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrSingular) != errors.Is(wantErr, ErrSingular) {
			t.Fatalf("%s: err %v, oracle %v", c.name, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if i := sameBits(got.qr.Data, want.qr.Data); i >= 0 {
			t.Errorf("%s: factor entry %d = %v, oracle %v", c.name, i, got.qr.Data[i], want.qr.Data[i])
		}
		if i := sameBits(got.rdia, want.rdia); i >= 0 {
			t.Errorf("%s: rdia[%d] = %v, oracle %v", c.name, i, got.rdia[i], want.rdia[i])
		}
	}
}

// BenchmarkFactorQRPivot times the protect-time rank probe on the shape
// of CIFAR-small conv1's golden im2col matrix (1024 output positions,
// 288 taps).
func BenchmarkFactorQRPivot(b *testing.B) {
	a := randMatrix(prng.New(1), 1024, 288)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FactorQRPivot(a, 1e-10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFactorQR times the full-solve factorization on the same
// shape.
func BenchmarkFactorQR(b *testing.B) {
	a := randMatrix(prng.New(1), 1024, 288)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FactorQR(a); err != nil {
			b.Fatal(err)
		}
	}
}

// probeMatrix rebuilds the matrix MILR's protect-time rank probe
// factors for the layer named conv of a zoo net with InitWeights(42)
// protected under seed 42: the layer's golden input (the engine's
// golden network input, propagated with recovery semantics) lowered to
// its im2col matrix, widened to float64.
func probeMatrix(t *testing.T, build func() (*nn.Model, error), conv string) *Matrix {
	t.Helper()
	m, err := build()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(42)
	// core's golden network input: prng.TensorFor(seed, tagGoldenInput, …).
	in := prng.TensorFor(42, 0x0100_0000_0000_0000, m.InShape()...)
	for i := 0; i < m.NumLayers(); i++ {
		c, ok := m.Layer(i).(*nn.Conv2D)
		if !ok || c.Name() != conv {
			continue
		}
		golden, err := m.ForwardRange(0, i, in, true)
		if err != nil {
			t.Fatal(err)
		}
		cols, err := c.Lower(golden)
		if err != nil {
			t.Fatal(err)
		}
		a := NewMatrix(cols.Dim(0), cols.Dim(1))
		for j, v := range cols.Data() {
			a.Data[j] = float64(v)
		}
		return a
	}
	t.Fatalf("no conv layer %q", conv)
	return nil
}

// bitsHash is an FNV-64a hash of a matrix's bits.
func bitsHash(a *Matrix) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range a.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestFactorQRPivotProbePins pins the rank probe on the engine's own
// inputs: CIFAR-small's and MNIST's conv2d_1 golden im2col matrices
// (the protect-time probes that demote those layers to partial mode).
// The input hash ties the rebuilt matrix to the one core factors; the
// ranks at rankTol (1e-6) and the factor bits at 1e-6 and 1e-10 are the
// column-walk factor's, taken before the norm folds were inlined.
func TestFactorQRPivotProbePins(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() (*nn.Model, error)
		in    uint64
		pins  []struct {
			rtol   float64
			rank   int
			factor uint64
		}
	}{
		{"cifar-small", nn.NewCIFARSmallNet, 0xef5743be897d4fd0, []struct {
			rtol   float64
			rank   int
			factor uint64
		}{{1e-6, 139, 0x223b02e6cab978b}, {1e-10, 288, 0xf02c99a979f765c4}}},
		{"mnist", nn.NewMNISTNet, 0x27dd62a53bd2f241, []struct {
			rtol   float64
			rank   int
			factor uint64
		}{{1e-6, 25, 0xfa420d7a584c935b}, {1e-10, 288, 0xc56c6dd47c584a43}}},
	} {
		a := probeMatrix(t, c.build, "conv2d_1")
		if h := bitsHash(a); h != c.in {
			t.Fatalf("%s: probe input hash %#x, want %#x", c.name, h, c.in)
		}
		for _, p := range c.pins {
			f, err := FactorQRPivot(a, p.rtol)
			if err != nil {
				t.Fatal(err)
			}
			if f.rank != p.rank {
				t.Errorf("%s rtol=%g: rank %d, want %d", c.name, p.rtol, f.rank, p.rank)
			}
			if h := bitsHash(f.qr); h != p.factor {
				t.Errorf("%s rtol=%g: factor hash %#x, want %#x", c.name, p.rtol, h, p.factor)
			}
		}
	}
}
