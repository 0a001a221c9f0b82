package main

import (
	"math"
	"slices"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the nearest-rank q-quantile of sorted samples, 0
// when there are none (a metric with zero samples, never a crash).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median sorts a copy of v and returns its median.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	slices.Sort(s)
	if n := len(s); n > 0 && n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return quantile(s, 0.5)
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// subSeed derives the seed of the n-th client, cycle or repetition from
// a phase seed, so that each draws from a stream of its own.
func subSeed(seed uint64, n int) uint64 { return seed ^ uint64(n+1)*0x9e3779b97f4a7c15 }
