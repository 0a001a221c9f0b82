package nn

import (
	"testing"
)

func TestEvaluateWorkersMatchSerial(t *testing.T) {
	m, err := NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(1)
	samples := makeToySamples(40, 3)
	m.SetWorkers(0)
	seq, err := Evaluate(m, samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 64} {
		m.SetWorkers(workers)
		par, err := Evaluate(m, samples)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par != seq {
			t.Errorf("workers=%d: pooled accuracy %v != serial %v", workers, par, seq)
		}
	}
	m.SetWorkers(0)
	if _, err := Evaluate(m, nil); err == nil {
		t.Error("empty samples accepted")
	}
}
