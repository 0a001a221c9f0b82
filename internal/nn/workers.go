package nn

import "sync/atomic"

// Worker-count plumbing for the batched-GEMM inference path and the
// MILR engine that protects the model. A worker count only changes
// *how* a pass is computed, never the result: the pooled GEMM kernels
// are bit-identical to the serial ones (see internal/tensor/gemm.go).
// Counts follow par.Resolve: the default of 0 is serial, n > 0 uses at
// most n goroutines, and a negative count is GOMAXPROCS.

// WorkerTunable is implemented by layers whose forward pass can run on
// a bounded worker pool (convolution and dense, the GEMM layers).
type WorkerTunable interface {
	Layer
	// SetWorkers sets the layer's forward-pass worker count (see
	// par.Resolve).
	SetWorkers(n int)
	// ForwardWorkers returns the configured count.
	ForwardWorkers() int
}

// gemmWorkers holds a layer's worker count. Atomic because deployments
// may retune a live model (e.g. drop to serial during a latency-critical
// window) while inference goroutines read it.
type gemmWorkers struct {
	workers atomic.Int64
}

// SetWorkers implements WorkerTunable.
func (g *gemmWorkers) SetWorkers(n int) { g.workers.Store(int64(n)) }

// ForwardWorkers implements WorkerTunable.
func (g *gemmWorkers) ForwardWorkers() int { return int(g.workers.Load()) }

// SetWorkers sets the model's worker count: every WorkerTunable layer's
// forward pass and the MILR engine protecting the model (Workers) run
// at it. 0 restores the serial path; -1 means GOMAXPROCS.
func (m *Model) SetWorkers(n int) {
	m.workers.Store(int64(n))
	for _, l := range m.layers {
		if t, ok := l.(WorkerTunable); ok {
			t.SetWorkers(n)
		}
	}
}

// Workers returns the count Model.SetWorkers last set (0, serial, until
// then).
func (m *Model) Workers() int { return int(m.workers.Load()) }
