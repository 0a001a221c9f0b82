package nn

import "sync/atomic"

// Worker-count plumbing for the batched-GEMM inference path and the
// MILR engine that protects the model. A worker count only changes
// *how* a pass is computed, never the result: the pooled GEMM kernels
// are bit-identical to the serial ones (see internal/tensor/gemm.go).
// Counts follow par.Resolve: the default of 0 is serial, n > 0 uses at
// most n goroutines, and a negative count is GOMAXPROCS. The model
// holds the one count; NewModel points each conv and dense layer at it,
// so a layer built into no model runs serially.

// SetWorkers sets the model's worker count: its GEMM layers' forward
// passes and the MILR engine protecting the model (Workers) run at it.
// 0 restores the serial path; -1 means GOMAXPROCS. It is atomic because
// a live model may be retuned while inference and scrubs read it.
func (m *Model) SetWorkers(n int) { m.workers.Store(int64(n)) }

// Workers returns the count Model.SetWorkers last set (0, serial, until
// then).
func (m *Model) Workers() int { return int(m.workers.Load()) }

// loadWorkers reads the count of the model a GEMM layer was last built
// into; nil (no model) is serial.
func loadWorkers(w *atomic.Int64) int {
	if w == nil {
		return 0
	}
	return int(w.Load())
}
