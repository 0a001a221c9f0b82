package core

import (
	"testing"

	"milr/internal/faults"
	"milr/internal/nn"
)

// BenchmarkConvHeal times the conv heal of the repo benchmark's
// heal-conv-bitflip1024 workload without the gateway: per iteration,
// 1024 distinct bit flips (FlipExactBits, seeded by the iteration
// number) into an untrained (InitWeights(42)) CIFAR-small net protected
// with Options{Seed: 42}, then one SelfHeal. Restoring the clean
// weights and ResetCRC run outside the timer. The model's workers
// follow GOMAXPROCS, so -cpu sweeps the engine's pool. Run with
// -benchmem for the bytes and allocations per heal.
func BenchmarkConvHeal(b *testing.B) {
	m, err := nn.NewCIFARSmallNet()
	if err != nil {
		b.Fatal(err)
	}
	m.InitWeights(42)
	m.SetWorkers(-1)
	pr, err := NewProtector(m, Options{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	clean := m.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		faults.New(uint64(i)).FlipExactBits(m, 1024)
		det, _, err := pr.SelfHeal()
		if err != nil {
			b.Fatal(err)
		}
		if !det.HasErrors() {
			b.Fatal("1024 flipped bits flagged no layer")
		}
		b.StopTimer()
		if err := m.Restore(clean); err != nil {
			b.Fatal(err)
		}
		pr.ResetCRC()
		b.StartTimer()
	}
}

// BenchmarkDenseHeal times the dense heal of the repo benchmark's
// heal-dense-layer workload without the gateway: per iteration, MNIST's
// 6400×256 dense layer overwritten (OverwriteLayer, seeded by the
// iteration number) in an untrained (InitWeights(42)) net protected
// with Options{Seed: 42}, then one SelfHeal. Restoring the clean
// weights and ResetCRC run outside the timer. The model's workers
// follow GOMAXPROCS (workers −1). Run with -benchmem for the bytes and
// allocations per heal.
func BenchmarkDenseHeal(b *testing.B) {
	m, err := nn.NewMNISTNet()
	if err != nil {
		b.Fatal(err)
	}
	m.InitWeights(42)
	m.SetWorkers(-1)
	var target *nn.Dense
	for _, l := range m.Layers() {
		if d, ok := l.(*nn.Dense); ok && d.In() == 6400 && d.Out() == 256 {
			target = d
		}
	}
	if target == nil {
		b.Fatal("MNIST has no 6400×256 dense layer")
	}
	pr, err := NewProtector(m, Options{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	clean := m.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		faults.New(uint64(i)).OverwriteLayer(target)
		det, _, err := pr.SelfHeal()
		if err != nil {
			b.Fatal(err)
		}
		if !det.HasErrors() {
			b.Fatal("an overwritten dense layer was not flagged")
		}
		b.StopTimer()
		if err := m.Restore(clean); err != nil {
			b.Fatal(err)
		}
		pr.ResetCRC()
		b.StartTimer()
	}
}
