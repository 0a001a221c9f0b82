package dataset

import (
	"testing"

	"milr/internal/nn"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config must fail")
	}
	if _, err := New(MNISTLike(1)); err != nil {
		t.Errorf("MNISTLike config rejected: %v", err)
	}
}

func TestShapes(t *testing.T) {
	d, err := New(MNISTLike(1))
	if err != nil {
		t.Fatal(err)
	}
	s := d.Sample(3, 0)
	if s.Label != 3 {
		t.Errorf("label %d, want 3", s.Label)
	}
	if got := s.X.Shape(); got[0] != 28 || got[1] != 28 || got[2] != 1 {
		t.Errorf("shape %v", got)
	}
	c, err := New(CIFARLike(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Sample(0, 0).X.Shape(); got[0] != 32 || got[1] != 32 || got[2] != 3 {
		t.Errorf("shape %v", got)
	}
}

func TestDeterminism(t *testing.T) {
	d1, _ := New(MNISTLike(42))
	d2, _ := New(MNISTLike(42))
	a := d1.Sample(5, 17)
	b := d2.Sample(5, 17)
	if !a.X.Equalish(b.X, 0) {
		t.Fatal("samples not deterministic")
	}
	c := d1.Sample(5, 18)
	if a.X.Equalish(c.X, 0) {
		t.Fatal("distinct indices produced identical samples")
	}
}

func TestBatchRoundRobinAndSplit(t *testing.T) {
	d, _ := New(MNISTLike(7))
	batch := d.Batch(25, 0)
	if len(batch) != 25 {
		t.Fatalf("batch size %d", len(batch))
	}
	for i, s := range batch {
		if s.Label != i%10 {
			t.Fatalf("sample %d label %d, want %d", i, s.Label, i%10)
		}
	}
	train, test := d.TrainTest(20, 20)
	for i := range train {
		if train[i].Label == test[i].Label && train[i].X.Equalish(test[i].X, 0) {
			t.Fatal("train and test splits overlap")
		}
	}
}

func TestTemplatesSeparated(t *testing.T) {
	d, _ := New(MNISTLike(9))
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			diff, err := d.templates[a].MaxAbsDiff(d.templates[b])
			if err != nil {
				t.Fatal(err)
			}
			if diff < 0.1 {
				t.Errorf("templates %d and %d too close: %v", a, b, diff)
			}
		}
	}
}

// A tiny model must be able to learn the synthetic data well above
// chance — the property the whole evaluation depends on.
func TestLearnable(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	cfg := MNISTLike(11)
	cfg.Height, cfg.Width = 12, 12 // shrink to the tiny net's input
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	// The tiny net has 4 outputs; use only 4 classes.
	var train, test []nn.Sample
	for i := 0; i < 160; i++ {
		train = append(train, d.Sample(i%4, i/4))
	}
	for i := 0; i < 80; i++ {
		test = append(test, d.Sample(i%4, 1000+i/4))
	}
	m.InitWeights(1)
	if _, err := nn.Train(m, train, nn.TrainConfig{Epochs: 6, BatchSize: 8, LR: 0.03, Momentum: 0.9, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	acc, err := nn.Evaluate(m, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Errorf("synthetic dataset not learnable: accuracy %v", acc)
	}
}
