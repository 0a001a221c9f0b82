package tensor

// The AVX2/FMA routines of gemm_amd64.s. Each covers at most one run of
// one output row, writes only its acc array, and trusts its caller to
// have sliced every range it reads: span is four adjacent panels of
// equal length, panel one; vals and offs are a compacted run
// (len(offs) >= len(vals)) whose offsets plus base lie inside a panel;
// b holds at least len(acc) values.

//go:noescape
func tile4(span []float64, vals []float64, offs []int32, base int, acc *[4 * tileCols]float64)

//go:noescape
func tile1(panel []float64, vals []float64, offs []int32, base int, acc *[tileCols]float64)

//go:noescape
func axpy(acc []float64, av float64, b []float32)

// subScaledBand is SubScaledBand's body: ring is a whole number of
// len(acc)-value rows, len(acc) > 0, and start (a multiple of len(acc))
// indexes the row vals[0] scales.
//
//go:noescape
func subScaledBand(acc, ring, vals []float64, start int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// simdAvailable reports whether this CPU has AVX2 and FMA and the OS
// saves the YMM registers across context switches.
func simdAvailable() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xgetbv()&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
