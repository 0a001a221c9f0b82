package nn

import (
	"fmt"
	"runtime"
	"testing"

	"milr/internal/prng"
	"milr/internal/tensor"
)

// Parallel–serial equivalence for the GEMM-forward path: for each of
// the paper's four networks, the pooled forward pass — normal and
// recovery mode — must be float-identical to the serial per-sample
// oracle (forward_oracle_test.go) at every worker count. The pooled
// GEMM kernels preserve the serial accumulation order exactly, so the
// contract here is bitwise, not approximate.

func equivalenceNets(t *testing.T) map[string]*Model {
	t.Helper()
	nets := map[string]*Model{}
	for name, build := range map[string]func() (*Model, error){
		"tiny":        NewTinyNet,
		"mnist":       NewMNISTNet,
		"cifar-small": NewCIFARSmallNet,
		"cifar-large": NewCIFARLargeNet,
	} {
		m, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m.InitWeights(uint64(len(name)) * 77)
		nets[name] = m
	}
	return nets
}

func workerCounts() []int {
	counts := []int{1, 2}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 {
		counts = append(counts, g)
	}
	return counts
}

func TestForwardParallelSerialEquivalence(t *testing.T) {
	for name, m := range equivalenceNets(t) {
		x := prng.TensorFor(11, 13, m.InShape()...)
		m.SetWorkers(0)
		want, err := oracleForward(m, x, false)
		if err != nil {
			t.Fatalf("%s serial forward: %v", name, err)
		}
		wantRec, err := oracleForward(m, x, true)
		if err != nil {
			t.Fatalf("%s serial recovery forward: %v", name, err)
		}
		for _, workers := range workerCounts() {
			m.SetWorkers(workers)
			got, err := m.Forward(x)
			if err != nil {
				t.Fatalf("%s workers=%d forward: %v", name, workers, err)
			}
			assertIdentical(t, fmt.Sprintf("%s workers=%d forward", name, workers), want, got)
			gotRec, err := m.RecoveryForward(x)
			if err != nil {
				t.Fatalf("%s workers=%d recovery forward: %v", name, workers, err)
			}
			assertIdentical(t, fmt.Sprintf("%s workers=%d recovery", name, workers), wantRec, gotRec)
		}
		m.SetWorkers(0)
	}
}

func assertIdentical(t *testing.T, label string, want, got *tensor.Tensor) {
	t.Helper()
	wd, gd := want.Data(), got.Data()
	if len(wd) != len(gd) {
		t.Fatalf("%s: length %d vs %d", label, len(gd), len(wd))
	}
	for i := range wd {
		if wd[i] != gd[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", label, i, gd[i], wd[i])
		}
	}
}

// TestEvaluatePooledMatchesSerial pins the batched-inference path:
// accuracy over a labelled set is identical whether the GEMM pools run
// serial or at any worker count (Evaluate itself is batch-first).
func TestEvaluatePooledMatchesSerial(t *testing.T) {
	for name, m := range equivalenceNets(t) {
		in := m.InShape()
		samples := make([]Sample, 12)
		for i := range samples {
			samples[i] = Sample{
				X:     prng.TensorFor(uint64(i)+3, 21, in...),
				Label: i % 3,
			}
		}
		m.SetWorkers(0)
		want, err := Evaluate(m, samples)
		if err != nil {
			t.Fatalf("%s evaluate: %v", name, err)
		}
		for _, workers := range workerCounts() {
			m.SetWorkers(workers)
			got, err := Evaluate(m, samples)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if got != want {
				t.Errorf("%s workers=%d: accuracy %v, want %v", name, workers, got, want)
			}
		}
		m.SetWorkers(0)
	}
}
