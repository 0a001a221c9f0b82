package core

import (
	"testing"

	"milr/internal/nn"
)

// BenchmarkDetect times one clean scrub: Detect on an untrained
// (InitWeights(42)) CIFAR-small or MNIST net protected with
// Options{Seed: 42}, serial — one row probe per conv and dense layer,
// one parameter sum per bias layer. Run with -benchmem for the bytes
// and allocations per scrub.
func BenchmarkDetect(b *testing.B) {
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
			pr, err := NewProtector(m, Options{Seed: 42})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := pr.Detect()
				if err != nil {
					b.Fatal(err)
				}
				if rep.HasErrors() {
					b.Fatalf("clean %s flagged layers %v", net.name, rep.Erroneous())
				}
			}
		})
	}
}
