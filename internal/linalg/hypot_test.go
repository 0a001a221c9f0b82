package linalg

import (
	"math"
	"testing"

	"milr/internal/prng"
)

// TestHypotFoldMatchesMathHypot compares hypotFold(|p|, |q|), as the
// norm folds call it, with math.Hypot(p, q) bit for bit, NaNs included:
// every special value in both argument orders, extreme ratios and
// seeded random bit patterns. Off amd64 hypotFold is math.Hypot and the
// test holds trivially.
func TestHypotFoldMatchesMathHypot(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1),
		math.NaN(), -math.NaN(),
		math.Float64frombits(0x7FF0000000000001), // signalling NaN
		math.Float64frombits(0xFFF8000000000123), // negative NaN with a payload
		math.Float64frombits(0x7FFFFFFFFFFFFFFF), // largest payload
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), // largest subnormal
		-math.Float64frombits(0x000FFFFFFFFFFFFF),
		0x1p-1022, -0x1p-1022, // smallest normal
		math.MaxFloat64, -math.MaxFloat64,
		1, -1, 3, 4, 1e-300, -1e-300, 1e300, -1e300, 1e-160, 1e160,
		math.Nextafter(1, 2), math.Nextafter(1, 0),
	}
	check := func(p, q float64) {
		t.Helper()
		got, want := hypotFold(math.Abs(p), math.Abs(q)), math.Hypot(p, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("hypotFold(%v [%#x], %v [%#x]) = %v [%#x], math.Hypot %v [%#x]",
				p, math.Float64bits(p), q, math.Float64bits(q),
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, p := range special {
		for _, q := range special {
			check(p, q)
		}
	}
	// Ratios near 1 (equal operands, neighbours) and near 1e±300.
	s := prng.New(48)
	for i := 0; i < 10000; i++ {
		v := (s.Float64() + 0.5) * math.Pow(2, float64(s.Intn(2000)-1000))
		check(v, v)
		check(v, -math.Nextafter(v, math.Inf(1)))
		check(math.Nextafter(v, 0), v)
		check(v, v*1e-300)
		check(-v*1e300, v)
		check(v*1e-150, v*1e150)
	}
	// Random bit patterns: every exponent, subnormals, Infs and NaNs.
	for i := 0; i < 200000; i++ {
		check(math.Float64frombits(s.Uint64()), math.Float64frombits(s.Uint64()))
	}
	// Norm folds: a non-negative accumulator and a random value.
	for i := 0; i < 100000; i++ {
		acc := math.Abs(math.Float64frombits(s.Uint64()))
		check(acc, 2*s.Float64()-1)
	}
}
