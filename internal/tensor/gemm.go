package tensor

import (
	"fmt"
	"sync/atomic"

	"milr/internal/par"
)

// gemmCalls counts GEMM kernel invocations: one per product, whichever
// of MatMul, MatMulWorkers, MatMulInto and ConvInto issued it. The
// batch-first inference path promises at most one GEMM per conv or
// dense layer per batch; tests read this counter to enforce that.
var gemmCalls atomic.Uint64

// GEMMCalls returns the number of GEMM kernel invocations since process
// start. Monotonic; take a before/after delta around the region of
// interest.
func GEMMCalls() uint64 { return gemmCalls.Load() }

// Register-tiled, zero-skipping, pool-parallel GEMM. Every product in
// the tree (MatMul, MatMulWorkers, MatMulInto, and ConvInto, whose left
// operand is a convolution's im2col matrix) runs matMulInto or
// convInto, and every output element is computed with the same
// arithmetic whatever the shape, the loop order, the worker count or
// the kernel:
//
//   - one float64 accumulator per element, starting at +0;
//   - k ascending;
//   - terms with a[i][k] == 0 (either sign) skipped, so 0·Inf from a
//     bit-flipped weight never becomes NaN.
//
// A float32×float32 product is exact in float64, so only the summation
// order could change a bit, and it never does; for the same reason a
// fused multiply-add, which rounds a·b + acc once, rounds exactly as
// the product followed by the sum does. Results are therefore
// bit-identical across the two loop orders below, the two kernels and
// any worker count — the property MILR needs, since its detection
// checkpoints compare float outputs against stored values and its
// stored checkpoints outlive any one kernel.
//
// A product's loop order is chosen from m alone. With tileMinRows rows
// or more, B is packed once into float64 column panels and every A
// row's non-zeros are compacted once, branch-free; 1×tileCols register
// tiles then run branch-free over the compacted list. With fewer rows
// one pass over B would not pay for the packing, so A's rows stream B's
// rows into a float64 accumulator row — the order that walks a B too
// large for the cache (dense inference is a (B,6400)·(6400,256) product)
// contiguously.
//
// A convolution always runs the tiles, and never forms its im2col
// matrix: each input value would appear in it once per filter tap that
// reads it (F² times at stride 1). Instead each worker compacts the
// input rows its output rows read, once, pixel by pixel, and an output
// row is the at most F runs of that list its window rows cover, each
// with its own base offset into the panels. A padded tap has no entry,
// as a zero it would have held has none, so every element still sums
// its non-zero terms k ascending from +0. The tiles carry their float64
// accumulators across a row's runs and narrow them to float32 once; a
// product's row is one run at base 0.
//
// The kernel is chosen once, at package init, from CPUID and XGETBV:
// where the CPU has AVX2 and FMA and the OS saves the YMM registers
// (gemm_amd64.s), a tile four panels wide (eight ymm accumulators, as
// many FMAs as its latency times its throughput keeps in flight) and a
// one-panel tile for the panels left over replace tileDot, and an FMA
// row axpy replaces streamRows' inner loop. The same probe picks
// SubScaledBand's body, a multiply-then-subtract loop with no FMA.
// Everywhere else the Go code below runs; it stays the portable kernel
// and, with the ikj loop in the tests, the oracle for the SIMD one.
// Packing, compaction and banding are shared. An assembly call covers
// at most one run of one output row, so preemption and stop-the-world
// latency stay those of the Go kernel; Go slices every range it reads
// before the call, so a kernel bug panics in Go; and it writes only an
// accumulator array on Go's stack, so the race detector sees every
// write to C.

// useSIMD selects the AVX2/FMA routines; tests switch it off to run the
// Go kernel on the same host.
var useSIMD = simdAvailable()

// Kernel names the GEMM kernel this process runs: "avx2-fma" or "go".
// A throughput figure means little without it.
func Kernel() string {
	if useSIMD {
		return "avx2-fma"
	}
	return "go"
}

const (
	// tileCols is a panel's width: eight float64 columns, two ymm
	// registers, and the Go tile's eight scalar accumulators.
	tileCols = 8
	// tileMinRows is the row count from which packing B (one pass over
	// B, amortised over m rows) is cheaper than streaming it.
	tileMinRows = 16
	// pad is a cache line, counted in 4-byte elements, the narrowest the
	// scratch holds.
	pad = 16
)

// Scratch is the kernel's working memory: B's float64 panels, and per
// worker a compacted left operand (a product's row, or a convolution's
// input rows with each pixel's start) or a row's accumulators. A caller
// that multiplies repeatedly passes the same Scratch to MatMulInto or
// ConvInto so steady state allocates nothing; it grows on demand and
// must not be shared by concurrent products. Nothing in it is read
// before it is rewritten: the panels are rebuilt from the live B on
// every call, so no copy of a weight outlives the product that made it.
type Scratch struct {
	panels []float64
	vals   []float64
	offs   []int32
	starts []int32
}

// Grow returns *buf resized to n elements, reallocating only when its
// capacity is short: the idiom of every reused scratch buffer here and
// in nn's workspace. The contents are unspecified.
func Grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// MatMulInto computes C = A·B into c for row-major a (m×n), b (n×p) and
// c (m×p), on a bounded worker pool (see MatMulWorkers), using s as
// working memory (nil allocates). It is the allocation-free form of
// MatMulWorkers and is bit-identical to it.
func MatMulInto(c, a, b []float32, m, n, p, workers int, s *Scratch) error {
	if m < 0 || n < 0 || p < 0 || len(a) != m*n || len(b) != n*p || len(c) != m*p {
		return fmt.Errorf("tensor: matmul (%d,%d)x(%d,%d) does not fit buffers of %d, %d and %d elements",
			m, n, n, p, len(a), len(b), len(c))
	}
	if s == nil {
		s = new(Scratch)
	}
	matMulInto(c, a, b, m, n, p, workers, s)
	return nil
}

// matMulInto is the product kernel.
func matMulInto(c, a, b []float32, m, n, p, workers int, s *Scratch) {
	gemmCalls.Add(1)
	if n == 0 {
		clear(c) // empty sums; b has no rows to slice
		return
	}
	w := par.Resolve(workers, m*p)
	if m >= tileMinRows {
		panels := s.pack(b, n, p, w)
		// Workers' scratch regions are spaced a cache line apart (pad):
		// adjacent, the last values of one and the first of the next
		// share a line that both keep writing.
		sn := n + pad
		vals, offs := Grow(&s.vals, w*sn), Grow(&s.offs, w*sn)
		bands(m, w, func(t, lo, hi int) {
			vals, offs := vals[t*sn:][:n], offs[t*sn:][:n]
			for i := lo; i < hi; i++ {
				nz := compactRow(a[i*n:(i+1)*n], vals, offs)
				tileRow(c[i*p:(i+1)*p], panels, n, vals, offs, []run{{0, nz, 0}})
			}
		})
		return
	}
	sp := p + pad
	acc := Grow(&s.vals, w*sp)
	if m < w && p >= w {
		// Too few rows to feed the pool: split the columns instead.
		bands(p, w, func(t, jlo, jhi int) { streamRows(c, a, b, n, p, 0, m, jlo, acc[t*sp:][:jhi-jlo]) })
		return
	}
	bands(m, w, func(t, lo, hi int) { streamRows(c, a, b, n, p, lo, hi, 0, acc[t*sp:][:p]) })
}

// Conv is a convolution's geometry: H×W inputs of Z channels, Y filters
// of F×F×Z taps applied at stride Stride, and Pad zeros around the input
// on each side.
type Conv struct{ H, W, Z, F, Stride, Pad, Y int }

// outSize returns the output's spatial extent, 0 where the filter does
// not fit.
func (g Conv) outSize() (gh, gw int) {
	gh, _ = ConvOutputSize(g.H, g.F, g.Pad, g.Stride)
	gw, _ = ConvOutputSize(g.W, g.F, g.Pad, g.Stride)
	return gh, gw
}

// ConvInto computes the convolution of b unpadded (H,W,Z) samples, back
// to back in x, with the (F²Z, Y) filter matrix filt into c, which holds
// b (G_h,G_w,Y) outputs back to back: one GEMM, C = A·filt for A the
// samples' im2col matrices (Im2Col of each padded sample) stacked, on a
// bounded worker pool (see MatMulWorkers), using s as working memory
// (nil allocates). Every element is bit-identical to MatMulInto's on
// the materialised A, which is never formed.
func ConvInto(c, x, filt []float32, b int, g Conv, workers int, s *Scratch) error {
	gh, gw := g.outSize()
	if b < 0 || g.H <= 0 || g.W <= 0 || g.Z <= 0 || g.F <= 0 || g.Pad < 0 || g.Y <= 0 || gh <= 0 || gw <= 0 {
		return fmt.Errorf("tensor: cannot convolve (%d,%d,%d) inputs with %d filters of %dx%d at stride %d and padding %d",
			g.H, g.W, g.Z, g.Y, g.F, g.F, g.Stride, g.Pad)
	}
	if len(x) != b*g.H*g.W*g.Z || len(filt) != g.F*g.F*g.Z*g.Y || len(c) != b*gh*gw*g.Y {
		return fmt.Errorf("tensor: convolution of %d (%d,%d,%d) samples with (%d,%d) filters into (%d,%d,%d) outputs does not fit buffers of %d, %d and %d elements",
			b, g.H, g.W, g.Z, g.F*g.F*g.Z, g.Y, gh, gw, g.Y, len(x), len(filt), len(c))
	}
	if s == nil {
		s = new(Scratch)
	}
	convInto(c, x, filt, b, g, workers, s)
	return nil
}

// convInto is the convolution kernel. A worker's output rows of one
// sample read the input rows [rlo, rhi); it compacts those once (see
// compactPixels) and runs each output row as one run per window row
// inside the input.
func convInto(c, x, filt []float32, b int, g Conv, workers int, s *Scratch) {
	gemmCalls.Add(1)
	gh, gw := g.outSize()
	g2, n, p := gh*gw, g.F*g.F*g.Z, g.Y
	w := par.Resolve(workers, b*g2*p)
	panels := s.pack(filt, n, p, w)
	ne, npx := g.H*g.W*g.Z, g.H*g.W // one sample
	sn, sp := ne+pad, npx+1+pad
	vals, offs, starts := Grow(&s.vals, w*sn), Grow(&s.offs, w*sn), Grow(&s.starts, w*sp)
	bands(b*g2, w, func(t, lo, hi int) {
		vals, offs, starts := vals[t*sn:][:ne], offs[t*sn:][:ne], starts[t*sp:][:npx+1]
		var buf [8]run
		for lo < hi {
			smp := lo / g2
			r0, r1 := lo-smp*g2, min(hi-smp*g2, g2)
			rlo := max(r0/gw*g.Stride-g.Pad, 0)
			rhi := max(min((r1-1)/gw*g.Stride-g.Pad+g.F, g.H), rlo)
			compactPixels(x[(smp*g.H+rlo)*g.W*g.Z:(smp*g.H+rhi)*g.W*g.Z], g.W, g.Z, vals, offs, starts)
			for r := r0; r < r1; r++ {
				top, left := r/gw*g.Stride-g.Pad, r%gw*g.Stride-g.Pad
				clo, chi := max(left, 0), min(left+g.F, g.W)
				runs := buf[:0]
				for f1 := max(-top, 0); f1 < g.F && top+f1 < g.H && clo < chi; f1++ {
					// Tap (f1, x-left, ch) is column k = (f1·F + x-left)·Z + ch
					// of A; the compacted entry holds (x·Z + ch)·tileCols.
					px := (top + f1 - rlo) * g.W
					runs = append(runs, run{int(starts[px+clo]), int(starts[px+chi]), (f1*g.F - left) * g.Z * tileCols})
				}
				tileRow(c[(smp*g2+r)*p:][:p], panels, n, vals, offs, runs)
			}
			lo += r1 - r0
		}
	})
}

// pack converts b (n×p) into float64 panels (see packPanels) on w
// workers.
func (s *Scratch) pack(b []float32, n, p, w int) []float64 {
	np := (p + tileCols - 1) / tileCols
	panels := Grow(&s.panels, np*n*tileCols)
	par.Blocks(np, w, func(lo, hi int) { packPanels(panels, b, n, p, lo, hi) })
	return panels
}

// bands partitions [0,total) into at most w contiguous bands and runs
// fn(t, lo, hi) for band t concurrently; t indexes per-worker scratch.
func bands(total, w int, fn func(t, lo, hi int)) {
	if total <= 0 {
		return
	}
	chunk := (total + w - 1) / w
	par.For((total+chunk-1)/chunk, w, func(t int) {
		fn(t, t*chunk, min((t+1)*chunk, total))
	})
}

// packPanels converts columns [lo·tileCols, hi·tileCols) of b into
// float64 panels: panel s holds b[k][s·tileCols:(s+1)·tileCols] for k
// ascending, zero-padded past column p.
func packPanels(panels []float64, b []float32, n, p, lo, hi int) {
	for k := 0; k < n; k++ {
		brow := b[k*p : (k+1)*p]
		for s := lo; s < hi; s++ {
			dst := panels[(s*n+k)*tileCols:][:tileCols]
			src := brow[s*tileCols : min((s+1)*tileCols, p)]
			for q, v := range src {
				dst[q] = float64(v)
			}
			clear(dst[len(src):])
		}
	}
}

// run is the compacted entries [lo, hi) of one stretch of a left
// operand row, whose offsets are relative to base: the whole row of a
// product at base 0, or the part of a convolution's input one window
// row covers.
type run struct{ lo, hi, base int }

// tileRow computes crow, one output row of p values, from the runs of a
// compacted left operand row against the packed panels of n rows each:
// one float64 accumulator per element, carried across the runs in order
// and narrowed to float32 once.
func tileRow(crow []float32, panels []float64, n int, vals []float64, offs []int32, runs []run) {
	p := len(crow)
	for j := 0; j < p; {
		switch {
		case useSIMD && p-j > 3*tileCols:
			var acc [4 * tileCols]float64
			span := panels[j*n:][:4*n*tileCols]
			for _, r := range runs {
				tile4(span, vals[r.lo:r.hi], offs[r.lo:r.hi], r.base, &acc)
			}
			j += narrow(crow[j:], acc[:])
		case useSIMD:
			var acc [tileCols]float64
			panel := panels[j*n:][:n*tileCols]
			for _, r := range runs {
				tile1(panel, vals[r.lo:r.hi], offs[r.lo:r.hi], r.base, &acc)
			}
			j += narrow(crow[j:], acc[:])
		default:
			var acc [tileCols]float64
			panel := panels[j*n:][:n*tileCols]
			for _, r := range runs {
				tileDot(panel, vals[r.lo:r.hi], offs[r.lo:r.hi], r.base, &acc)
			}
			j += narrow(crow[j:], acc[:])
		}
	}
}

// narrow rounds acc into dst, as many values as both hold, and returns
// their count.
func narrow(dst []float32, acc []float64) int {
	k := min(len(dst), len(acc))
	for q, v := range acc[:k] {
		dst[q] = float32(v)
	}
	return k
}

// compactRow lists a row's non-zeros, k ascending, as (float64 value,
// panel offset) pairs and returns their count. It writes every pair and
// advances only past a non-zero, so the loop carries no branch for the
// unpredictable zero pattern of a post-ReLU activation.
//
// Kept out of line: inlined into its caller, the compiler (go1.24)
// spills nz and k to the stack on every iteration, which doubles the
// loop.
//
//go:noinline
func compactRow(arow []float32, vals []float64, offs []int32) int {
	vals, offs = vals[:len(arow)], offs[:len(arow)]
	nz := 0
	for k, av := range arow {
		vals[nz], offs[nz] = float64(av), int32(k*tileCols)
		if av != 0 {
			nz++
		}
	}
	return nz
}

// compactPixels is compactRow over whole rows of a (·,w,z) input, pixel
// by pixel: channel ch of the pixel at column x gets the offset
// (x·z + ch)·tileCols, and starts[q] is where the non-zeros of the q-th
// pixel (row-major) begin, so that the pixels [q, q') of one row hold
// entries [starts[q], starts[q']). starts holds one entry more than the
// pixels.
func compactPixels(rows []float32, w, z int, vals []float64, offs []int32, starts []int32) {
	nz, q := 0, 0
	for ; len(rows) > 0; rows, q = rows[w*z:], q+w {
		nz = compactPixelRow(rows[:w*z], z, vals, offs, starts[q:q+w], nz)
	}
	starts[q] = int32(nz)
}

// compactPixelRow compacts one input row from entry nz on and returns
// the entry count after it. Out of line for compactRow's reason: in one
// function with the loop over rows, the compiler spills the element
// counter.
//
//go:noinline
func compactPixelRow(row []float32, z int, vals []float64, offs []int32, starts []int32, nz int) int {
	o := int32(0)
	for x := range starts {
		starts[x] = int32(nz)
		for _, v := range row[x*z : (x+1)*z] {
			vals[nz], offs[nz] = float64(v), o
			if v != 0 {
				nz++
			}
			o += tileCols
		}
	}
	return nz
}

// tileDot is the register tile: tileCols accumulators take a run's
// terms, in order, against one panel, at panel offsets base + offs.
func tileDot(panel, vals []float64, offs []int32, base int, acc *[tileCols]float64) {
	offs = offs[:len(vals)]
	c0, c1, c2, c3, c4, c5, c6, c7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	for t, av := range vals {
		bv := panel[base+int(offs[t]):][:tileCols]
		c0 += av * bv[0]
		c1 += av * bv[1]
		c2 += av * bv[2]
		c3 += av * bv[3]
		c4 += av * bv[4]
		c5 += av * bv[5]
		c6 += av * bv[6]
		c7 += av * bv[7]
	}
	*acc = [tileCols]float64{c0, c1, c2, c3, c4, c5, c6, c7}
}

// streamRows computes columns [jlo, jlo+len(acc)) of rows [lo,hi) of C
// by streaming B's rows into acc.
func streamRows(c, a, b []float32, n, p, lo, hi, jlo int, acc []float64) {
	b, c = b[jlo:], c[jlo:]
	for i := lo; i < hi; i++ {
		clear(acc)
		for k, av := range a[i*n : (i+1)*n] {
			if av == 0 {
				continue
			}
			av, brow := float64(av), b[k*p:][:len(acc)]
			if useSIMD {
				axpy(acc, av, brow)
				continue
			}
			for j, bv := range brow {
				acc[j] += av * float64(bv)
			}
		}
		crow := c[i*p:][:len(acc)]
		for j, v := range acc {
			crow[j] = float32(v)
		}
	}
}

// SubScaledBand computes acc[j] -= vals[k]·row(first+k)[j] for k = 0,
// 1, … len(vals)−1 in that order, where ring holds len(ring)/len(acc)
// rows of len(acc) values and row(r) is its row r mod that count: the
// MILR heal's row updates, one band of already-solved rows subtracted
// from a block of columns in the dense back substitution, a run of
// known taps from a filter's residual in the conv solve, and each dense
// dummy output row at protect time. Every element is rounded as Go
// rounds the expression, k ascending: the product, then the
// difference. The float64 conversion keeps a compiler from fusing the
// two, and the SIMD body multiplies and subtracts in separate
// instructions, because a float64×float64 product is not exact and a
// fused multiply-add would change bits. The result is therefore the
// same on either kernel. The SIMD body keeps a strip of acc in
// registers across every k instead of loading and storing it once per
// k; the race detector does not see its accesses, so acc should be a
// buffer its caller alone writes, as every heal loop's is. ring must
// not overlap acc. It panics if first is negative, or if acc is not
// empty and ring is empty or not a whole number of rows.
func SubScaledBand(acc, ring, vals []float64, first int) {
	w := len(acc)
	if first < 0 {
		panic(fmt.Sprintf("tensor: SubScaledBand first %d < 0", first))
	}
	if w == 0 {
		return
	}
	if len(ring) == 0 || len(ring)%w != 0 {
		panic(fmt.Sprintf("tensor: SubScaledBand ring of %d values is not a whole number of %d-value rows", len(ring), w))
	}
	rows := len(ring) / w
	first %= rows
	if useSIMD {
		subScaledBand(acc, ring, vals, first*w)
		return
	}
	for k, s := 0, first; k < len(vals); k++ {
		a, row := vals[k], ring[s*w:(s+1)*w]
		for j, v := range row {
			acc[j] -= float64(a * v)
		}
		if s++; s == rows {
			s = 0
		}
	}
}

// MatMulWorkers computes C = A·B on a bounded worker pool (0 is serial,
// negative means GOMAXPROCS; see par.Resolve). The result is
// bit-identical to MatMul for every worker count.
func MatMulWorkers(a, b *Tensor, workers int) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("tensor: matmul requires rank-2 tensors, got %v and %v", a.Shape(), b.Shape())
	}
	m, n := a.Dim(0), a.Dim(1)
	n2, p := b.Dim(0), b.Dim(1)
	if n != n2 {
		return nil, fmt.Errorf("tensor: matmul inner dimension mismatch %v x %v", a.Shape(), b.Shape())
	}
	c := New(m, p)
	matMulInto(c.data, a.data, b.data, m, n, p, workers, new(Scratch))
	return c, nil
}
