//go:build !amd64

package tensor

// Off amd64 there is no SIMD kernel: the probe fails, so tileRows,
// streamRows and SubScaledBand never call these.

func simdAvailable() bool { return false }

func tile4([]float64, []float64, []int32, int, *[4 * tileCols]float64) {
	panic("tensor: no SIMD kernel on this architecture")
}

func tile1([]float64, []float64, []int32, int, *[tileCols]float64) {
	panic("tensor: no SIMD kernel on this architecture")
}

func axpy([]float64, float64, []float32) {
	panic("tensor: no SIMD kernel on this architecture")
}

func subScaledBand([]float64, []float64, []float64, int) {
	panic("tensor: no SIMD kernel on this architecture")
}
