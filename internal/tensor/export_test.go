package tensor

// HostKernels lists the GEMM kernels this host can run by their Kernel
// names: the portable Go kernel, then the SIMD one where the CPU has it.
func HostKernels() []string {
	if simdAvailable() {
		return []string{"go", "avx2-fma"}
	}
	return []string{"go"}
}

// SetKernel selects one of HostKernels by name and returns a function
// restoring the previous choice. Tests that call it must not run in
// parallel with other products.
func SetKernel(name string) (restore func()) {
	was := useSIMD
	useSIMD = name != "go" && simdAvailable()
	return func() { useSIMD = was }
}
