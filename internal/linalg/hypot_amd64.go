package linalg

import "math"

// hypotFold is math.Hypot(p, q), bit for bit, for p and q whose sign
// bits are clear (callers pass |x|, or a norm: +0 or an earlier fold),
// in a form the compiler inlines. On amd64 math.Hypot is an assembly
// routine (archHypot) that no loop can inline; this is that routine in
// Go, after its |p| and |q|:
//
//   - any +Inf gives +Inf, otherwise any NaN gives math.NaN();
//   - both zero gives 0;
//   - otherwise max·√(1+(min/max)²): one SSE2 divide, multiply, add,
//     square root and multiply, each rounded. The float64 conversion
//     keeps a GOAMD64=v3 build from fusing the multiply and add.
//
// The absolute values are the callers' so that the body stays inside
// the inliner's budget. Every other port keeps math.Hypot
// (hypot_other.go): 386's is x87 code, and arm64, ppc64 and s390x fuse.
func hypotFold(p, q float64) float64 {
	if p < q {
		p, q = q, p
	}
	// One test sends every special case out of the common path: p−q is
	// finite unless p is infinite or either is NaN (a NaN never swaps,
	// so either may hold it), and p > 0 fails for two zeros.
	if !(p > 0 && p-q <= math.MaxFloat64) {
		switch {
		case p > math.MaxFloat64:
			return p
		case q > math.MaxFloat64:
			return q
		case p == q: // both zero
			return 0
		}
		return math.NaN()
	}
	q /= p
	return p * math.Sqrt(1+float64(q*q))
}
