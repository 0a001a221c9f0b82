package nn

import (
	"math"
	"testing"
)

// TestSetWorkersKeepsCount: the model and every GEMM layer report the
// count SetWorkers stored, whatever its size; a count is never
// narrowed into another meaning (serial, or GOMAXPROCS).
func TestSetWorkersKeepsCount(t *testing.T) {
	m, err := NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, -1, math.MaxInt, math.MinInt} {
		m.SetWorkers(n)
		if got := m.Workers(); got != n {
			t.Errorf("SetWorkers(%d): Workers() = %d", n, got)
		}
		for _, l := range m.Layers() {
			if wt, ok := l.(WorkerTunable); ok && wt.ForwardWorkers() != n {
				t.Errorf("SetWorkers(%d): layer %s ForwardWorkers() = %d", n, l.Name(), wt.ForwardWorkers())
			}
		}
	}
}
