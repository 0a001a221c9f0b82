package core

import (
	"testing"

	"milr/internal/nn"
)

// BenchmarkProtect times MILR's initialization phase: NewProtector on
// an untrained (InitWeights(42)) CIFAR-small or MNIST net with
// Options{Seed: 42} and the model's workers at -1 (all cores) — the
// golden propagation, the conv rank probes, the dense dummy outputs, the
// CRC codes and the partial checkpoints. Run with -benchmem for the
// bytes and allocations per protect.
func BenchmarkProtect(b *testing.B) {
	for _, net := range []struct {
		name  string
		build func() (*nn.Model, error)
	}{{"cifar-small", nn.NewCIFARSmallNet}, {"mnist", nn.NewMNISTNet}} {
		b.Run(net.name, func(b *testing.B) {
			m, err := net.build()
			if err != nil {
				b.Fatal(err)
			}
			m.InitWeights(42)
			m.SetWorkers(-1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewProtector(m, Options{Seed: 42}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
