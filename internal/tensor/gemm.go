package tensor

import (
	"fmt"
	"sync/atomic"

	"milr/internal/par"
)

// gemmCalls counts GEMM kernel invocations: one per product, whichever
// of MatMul, MatMulWorkers, MatMulInto and MatMulRowsInto issued it. The batch-first
// inference path promises at most one GEMM per conv or dense layer per
// batch; tests read this counter to enforce that.
var gemmCalls atomic.Uint64

// GEMMCalls returns the number of GEMM kernel invocations since process
// start. Monotonic; take a before/after delta around the region of
// interest.
func GEMMCalls() uint64 { return gemmCalls.Load() }

// Register-tiled, zero-skipping, pool-parallel GEMM. Every product in
// the tree (MatMul, MatMulWorkers, MatMulInto, MatMulRowsInto) runs
// matMulInto, and every output element is computed with the same
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
// The loop order is chosen from m alone. With tileMinRows rows or more,
// B is packed once into float64 column panels and every A row's
// non-zeros are compacted once, branch-free; 1×tileCols register tiles
// then run branch-free over the compacted list. With fewer rows one
// pass over B would not pay for the packing, so A's rows stream B's rows
// into a float64 accumulator row — the order that walks a B too large
// for the cache (dense inference is a (B,6400)·(6400,256) product)
// contiguously.
//
// The kernel is chosen once, at package init, from CPUID and XGETBV:
// where the CPU has AVX2 and FMA and the OS saves the YMM registers
// (gemm_amd64.s), a tile four panels wide (eight ymm accumulators, as
// many FMAs as its latency times its throughput keeps in flight) and a
// one-panel tile for the panels left over replace tileDot, and an FMA
// row axpy replaces streamRows' inner loop. The same probe picks
// SubScaled's body, a multiply-then-subtract loop with no FMA.
// Everywhere else the Go code below runs; it stays the portable kernel
// and, with the ikj loop in the tests, the oracle for the SIMD one.
// Packing, compaction and banding are shared. An assembly call covers
// at most one output row, so preemption and stop-the-world latency stay
// those of the Go kernel; Go slices every range it reads before the
// call, so a kernel bug panics in Go; and it writes only a local array
// that Go copies into C, so the race detector sees every write.

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
// worker a row's compacted non-zeros or its accumulators, plus the
// chunk of rows a RowSource is filling. A caller that multiplies
// repeatedly passes the same Scratch to MatMulInto so steady state
// allocates nothing; it grows on demand and must not be shared by
// concurrent products. Nothing in it is read before it is rewritten:
// the panels are rebuilt from the live B on every call, so no copy of a
// weight outlives the product that made it.
type Scratch struct {
	panels []float64
	vals   []float64
	offs   []int32
	rows   []float32
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

// RowSource produces a left operand on demand: it writes rows [lo,hi)
// of an (m×n) matrix, n values each, into dst. The kernel asks for a
// band's rows a cache-sized chunk at a time, from several goroutines at
// once, so a matrix that is only ever a rearrangement of something
// smaller — a convolution's im2col lowering — is never materialised.
type RowSource func(dst []float32, lo, hi int)

// MatMulInto computes C = A·B into c for row-major a (m×n), b (n×p) and
// c (m×p), on a bounded worker pool (see MatMulWorkers), using s as
// working memory (nil allocates). It is the allocation-free form of
// MatMulWorkers and is bit-identical to it.
func MatMulInto(c, a, b []float32, m, n, p, workers int, s *Scratch) error {
	if len(a) != m*n {
		return fmt.Errorf("tensor: matmul left operand (%d,%d) does not fit %d elements", m, n, len(a))
	}
	return matMulChecked(c, a, nil, b, m, n, p, workers, s)
}

// MatMulRowsInto is MatMulInto with the left operand's rows produced by
// rows as the kernel consumes them.
func MatMulRowsInto(c []float32, rows RowSource, b []float32, m, n, p, workers int, s *Scratch) error {
	return matMulChecked(c, nil, rows, b, m, n, p, workers, s)
}

func matMulChecked(c, a []float32, rows RowSource, b []float32, m, n, p, workers int, s *Scratch) error {
	if m < 0 || n < 0 || p < 0 || len(b) != n*p || len(c) != m*p {
		return fmt.Errorf("tensor: matmul (%d,%d)x(%d,%d) does not fit buffers of %d and %d elements",
			m, n, n, p, len(b), len(c))
	}
	if s == nil {
		s = new(Scratch)
	}
	matMulInto(c, a, rows, b, m, n, p, workers, s)
	return nil
}

// matMulInto is the kernel: a holds the left operand unless rows
// produces it.
func matMulInto(c, a []float32, rows RowSource, b []float32, m, n, p, workers int, s *Scratch) {
	gemmCalls.Add(1)
	if n == 0 {
		clear(c) // empty sums; b has no rows to slice
		return
	}
	w := par.Resolve(workers, m*p)
	if m >= tileMinRows {
		np := (p + tileCols - 1) / tileCols
		panels := Grow(&s.panels, np*n*tileCols)
		par.Blocks(np, w, func(lo, hi int) { packPanels(panels, b, n, p, lo, hi) })
		// Workers' scratch regions are spaced a cache line apart (pad):
		// adjacent, the last values of one and the first of the next
		// share a line that both keep writing.
		sn := n + pad
		vals, offs := Grow(&s.vals, w*sn), Grow(&s.offs, w*sn)
		// A produced chunk is at most about 128 KB, to be consumed from
		// the cache it was written to, and no more than a band needs.
		chunkRows := min(max(tileMinRows, 1<<15/n), (m+w-1)/w)
		var chunks []float32
		if rows != nil {
			chunks = Grow(&s.rows, w*(chunkRows*n+pad))
		}
		bands(m, w, func(t, lo, hi int) {
			vals, offs := vals[t*sn:][:n], offs[t*sn:][:n]
			if rows == nil {
				tileRows(c[lo*p:hi*p], a[lo*n:hi*n], panels, hi-lo, n, p, vals, offs)
				return
			}
			for ; lo < hi; lo += chunkRows {
				k := min(chunkRows, hi-lo)
				chunk := chunks[t*(chunkRows*n+pad):][:k*n]
				rows(chunk, lo, lo+k)
				tileRows(c[lo*p:(lo+k)*p], chunk, panels, k, n, p, vals, offs)
			}
		})
		return
	}
	if rows != nil {
		a = Grow(&s.rows, m*n)
		rows(a, 0, m)
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

// tileRows computes rows of C, the m×n left operand a against the
// packed panels; vals and offs hold n entries each.
func tileRows(c, a []float32, panels []float64, m, n, p int, vals []float64, offs []int32) {
	for i := 0; i < m; i++ {
		nz := compactRow(a[i*n:(i+1)*n], vals, offs)
		crow := c[i*p : (i+1)*p]
		for j := 0; j < p; {
			switch {
			case useSIMD && p-j > 3*tileCols:
				var tile [4 * tileCols]float32
				tile4(panels[j*n:][:4*n*tileCols], vals[:nz], offs[:nz], &tile)
				j += copy(crow[j:], tile[:])
			case useSIMD:
				var tile [tileCols]float32
				tile1(panels[j*n:][:n*tileCols], vals[:nz], offs[:nz], &tile)
				j += copy(crow[j:], tile[:])
			default:
				tile := tileDot(panels[j*n:][:n*tileCols], vals[:nz], offs[:nz])
				j += copy(crow[j:], tile[:])
			}
		}
	}
}

// compactRow lists a row's non-zeros, k ascending, as (float64 value,
// panel offset) pairs and returns their count. It writes every pair and
// advances only past a non-zero, so the loop carries no branch for the
// unpredictable zero pattern of a post-ReLU activation.
//
// Kept out of line: inlined into tileRows, the compiler (go1.24) spills
// nz and k to the stack on every iteration, which doubles the loop.
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

// tileDot is the register tile: tileCols accumulators, each starting at
// +0, take the row's non-zero terms against one panel in k order.
func tileDot(panel, vals []float64, offs []int32) [tileCols]float32 {
	offs = offs[:len(vals)]
	var c0, c1, c2, c3, c4, c5, c6, c7 float64
	for t, av := range vals {
		bv := panel[offs[t]:][:tileCols]
		c0 += av * bv[0]
		c1 += av * bv[1]
		c2 += av * bv[2]
		c3 += av * bv[3]
		c4 += av * bv[4]
		c5 += av * bv[5]
		c6 += av * bv[6]
		c7 += av * bv[7]
	}
	return [tileCols]float32{float32(c0), float32(c1), float32(c2), float32(c3),
		float32(c4), float32(c5), float32(c6), float32(c7)}
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

// SubScaled computes dst[i] -= a·x[i] for every i < len(dst): the
// inner loop of the heal's conv residual and dense back-substitution
// (internal/core). x must hold at least len(dst) values, and dst and x
// must not overlap. Every element is rounded as Go rounds the
// expression: the product, then the difference. The float64
// conversion keeps a compiler from fusing the two, and the SIMD body
// multiplies and subtracts in separate instructions, because a
// float64×float64 product is not exact and a fused multiply-add would
// change bits. The result is therefore the same on either kernel. The
// race detector does not see the SIMD body's accesses, so dst should be
// a buffer its caller alone writes, as both heal loops' buffers are.
func SubScaled(dst, x []float64, a float64) {
	x = x[:len(dst)]
	if useSIMD {
		subScaled(dst, x, a)
		return
	}
	for i, v := range x {
		dst[i] -= float64(a * v)
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
	matMulInto(c.data, a.data, nil, b.data, m, n, p, workers, new(Scratch))
	return c, nil
}

// Im2ColRows returns the RowSource of a batch's stacked im2col matrix,
// and its row count: padded holds b padded (h,w,z) samples back to
// back, and row r·G²+g of the (b·G², F²Z) matrix is sample r's output
// position g, exactly Im2Col's row g of that sample. The batch-first
// conv path hands it to MatMulRowsInto, so a whole batch is one GEMM
// and the matrix itself never exists.
func Im2ColRows(padded []float32, b, h, w, z, f, s int) (RowSource, int, error) {
	if b < 0 || f <= 0 || s <= 0 || h < f || w < f || z <= 0 || len(padded) != b*h*w*z {
		return nil, 0, fmt.Errorf("tensor: Im2ColRows cannot lower %d values as %d samples of (%d,%d,%d) with filter %d, stride %d",
			len(padded), b, h, w, z, f, s)
	}
	gh, gw := (h-f)/s+1, (w-f)/s+1
	return func(dst []float32, lo, hi int) {
		for r := lo; r < hi; r++ {
			g := r % (gh * gw)
			src := padded[(r/(gh*gw)*h*w+(g/gw*s)*w+g%gw*s)*z:]
			for f1 := 0; f1 < f; f1++ {
				copy(dst[:f*z], src[f1*w*z:])
				dst = dst[f*z:]
			}
		}
	}, b * gh * gw, nil
}
