package nn

import (
	"testing"

	"milr/internal/prng"
	"milr/internal/tensor"
)

func TestTinyPartialNetShape(t *testing.T) {
	m, err := NewTinyPartialNet()
	if err != nil {
		t.Fatal(err)
	}
	if !m.InShape().Equal(tensor.Shape{8, 8, 1}) {
		t.Errorf("in shape %v", m.InShape())
	}
	if !m.OutShape().Equal(tensor.Shape{1, 8}) {
		t.Errorf("out shape %v", m.OutShape())
	}
	// Its second conv must be in the G² < F²Z regime (the reason this
	// net exists).
	var convs []*Conv2D
	for _, l := range m.Layers() {
		if c, ok := l.(*Conv2D); ok {
			convs = append(convs, c)
		}
	}
	if len(convs) != 2 {
		t.Fatalf("%d convs", len(convs))
	}
	c := convs[1]
	outShape, err := c.OutShape(tensor.Shape{6, 6, 4})
	if err != nil {
		t.Fatal(err)
	}
	g2 := outShape[0] * outShape[1]
	taps := c.FilterSize() * c.FilterSize() * c.InChannels()
	if g2 >= taps {
		t.Errorf("partial net conv has G²=%d ≥ F²Z=%d; not in partial regime", g2, taps)
	}
}

func TestAllZooNetsForward(t *testing.T) {
	if testing.Short() {
		t.Skip("large forwards in -short mode")
	}
	builders := []struct {
		name  string
		build func() (*Model, error)
	}{
		{"mnist", NewMNISTNet},
		{"cifar-small", NewCIFARSmallNet},
		{"cifar-large", NewCIFARLargeNet},
		{"tiny", NewTinyNet},
		{"tiny-partial", NewTinyPartialNet},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			m, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			m.InitWeights(1)
			x := prng.New(2).Tensor(m.InShape()...)
			out, err := m.Forward(x)
			if err != nil {
				t.Fatalf("forward: %v", err)
			}
			if !out.Shape().Equal(m.OutShape()) {
				t.Errorf("out shape %v, want %v", out.Shape(), m.OutShape())
			}
			// Recovery pass must run cleanly too (linearized ReLUs).
			if _, err := m.RecoveryForward(x); err != nil {
				t.Fatalf("recovery forward: %v", err)
			}
		})
	}
}

func TestModelRequiresLayers(t *testing.T) {
	if _, err := NewModel(tensor.Shape{4, 4, 1}); err == nil {
		t.Error("empty model accepted")
	}
}

func TestModelRejectsShapeMismatch(t *testing.T) {
	conv, err := NewConv2D(3, 2, 4, 1, Valid) // wants 2 channels
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewModel(tensor.Shape{8, 8, 1}, conv); err == nil {
		t.Error("channel mismatch accepted at build time")
	}
	if _, err := NewModel(tensor.Shape{}, NewFlatten()); err == nil {
		t.Error("flatten of an empty input shape accepted at build time")
	}
}
