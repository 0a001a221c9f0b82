package nn

import (
	"strings"
	"testing"

	"milr/internal/prng"
	"milr/internal/tensor"
)

func TestModelNaming(t *testing.T) {
	m, err := NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	if m.Layer(0).Name() != "conv2d" {
		t.Errorf("layer 0 name %q", m.Layer(0).Name())
	}
	if m.Layer(3).Name() != "conv2d_1" {
		t.Errorf("layer 3 name %q", m.Layer(3).Name())
	}
	seen := make(map[string]bool)
	for _, l := range m.Layers() {
		if seen[l.Name()] {
			t.Errorf("duplicate layer name %q", l.Name())
		}
		seen[l.Name()] = true
	}
}

func TestModelShapeChain(t *testing.T) {
	m, err := NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	if !m.InShape().Equal(tensor.Shape{12, 12, 1}) {
		t.Errorf("in shape %v", m.InShape())
	}
	if !m.OutShape().Equal(tensor.Shape{1, 4}) {
		t.Errorf("out shape %v", m.OutShape())
	}
	x := prng.New(1).Tensor(12, 12, 1)
	out, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape().Equal(m.OutShape()) {
		t.Errorf("forward shape %v", out.Shape())
	}
}

func TestModelForwardRangeComposes(t *testing.T) {
	m, err := NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(3)
	x := prng.New(2).Tensor(12, 12, 1)
	full, err := m.RecoveryForward(x)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := m.ForwardRange(0, 5, x, true)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := m.ForwardRange(5, m.NumLayers(), mid, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rest.Equalish(full, 0) {
		t.Error("split forward differs from full forward")
	}
	if _, err := m.ForwardRange(3, 1, x, false); err == nil {
		t.Error("invalid range must fail")
	}
	if got, err := m.ForwardRange(5, 5, x, true); err != nil || got != x {
		t.Errorf("empty range returned (%p, %v), want its input %p", got, err, x)
	}
	// A misfit input fails in the layer it does not fit, and the error
	// names that layer once, from ForwardRange as from ForwardBatch.
	twoChannel := prng.New(4).Tensor(12, 12, 2)
	for _, c := range []struct {
		layer int
		call  func() (*tensor.Tensor, error)
	}{
		{0, func() (*tensor.Tensor, error) { return m.ForwardRange(0, 5, twoChannel, true) }},
		{3, func() (*tensor.Tensor, error) { return m.ForwardRange(3, 5, x, true) }},
		{0, func() (*tensor.Tensor, error) { return m.Forward(twoChannel) }}, // ForwardBatch of one
	} {
		name := m.Layer(c.layer).Name()
		if _, err := c.call(); err == nil {
			t.Errorf("misfit input to %s accepted", name)
		} else if n := strings.Count(err.Error(), name); n != 1 {
			t.Errorf("misfit input to %s: error %q names the layer %d times, want once", name, err, n)
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	m, err := NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(4)
	snap := m.Snapshot()
	ps := m.ParamLayers()
	if len(ps) == 0 {
		t.Fatal("no parameterized layers")
	}
	p := m.Layer(ps[0]).(Parameterized)
	p.Params().Data()[0] += 100
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if p.Params().Data()[0] != snap[ps[0]].Data()[0] {
		t.Error("restore did not revert parameters")
	}
}

func TestInitWeightsDeterministic(t *testing.T) {
	m1, _ := NewTinyNet()
	m2, _ := NewTinyNet()
	m1.InitWeights(5)
	m2.InitWeights(5)
	s1, s2 := m1.Snapshot(), m2.Snapshot()
	for k := range s1 {
		if !s1[k].Equalish(s2[k], 0) {
			t.Fatalf("layer %d weights differ between identically seeded inits", k)
		}
	}
}

// Architecture tables must match the paper exactly.
func TestPaperArchitectures(t *testing.T) {
	cases := []struct {
		name       string
		build      func() (*Model, error)
		trainables []int
		total      int
	}{
		{
			name:       "MNIST (Table I)",
			build:      NewMNISTNet,
			trainables: []int{320, 9248, 0, 18496, 1638656, 2570},
			total:      1669290,
		},
		{
			name:       "CIFAR small (Table II)",
			build:      NewCIFARSmallNet,
			trainables: []int{896, 9248, 0, 18496, 36928, 0, 73856, 147584, 147584, 0, 262272, 1290},
			total:      698154,
		},
		{
			name:       "CIFAR large (Table III)",
			build:      NewCIFARLargeNet,
			trainables: []int{7296, 0, 230496, 0, 192080, 128064, 102464, 153696, 1573120, 2570},
			total:      2389786,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			rows := Architecture(m)
			if len(rows) != len(c.trainables) {
				t.Fatalf("got %d rows, want %d: %+v", len(rows), len(c.trainables), rows)
			}
			for i, want := range c.trainables {
				if rows[i].Trainable != want {
					t.Errorf("row %d (%s %v): trainable %d, want %d",
						i, rows[i].Layer, rows[i].OutShape, rows[i].Trainable, want)
				}
			}
			if got := m.ParamCount(); got != c.total {
				t.Errorf("total params %d, want %d", got, c.total)
			}
		})
	}
}

// Table output shapes (spot checks against the paper's tables).
func TestPaperOutputShapes(t *testing.T) {
	m, err := NewMNISTNet()
	if err != nil {
		t.Fatal(err)
	}
	rows := Architecture(m)
	wantShapes := []tensor.Shape{
		{26, 26, 32}, {24, 24, 32}, {12, 12, 32}, {10, 10, 64}, {1, 256}, {1, 10},
	}
	for i, want := range wantShapes {
		if !rows[i].OutShape.Equal(want) {
			t.Errorf("MNIST row %d shape %v, want %v", i, rows[i].OutShape, want)
		}
	}
	ml, err := NewCIFARLargeNet()
	if err != nil {
		t.Fatal(err)
	}
	lrows := Architecture(ml)
	if !lrows[0].OutShape.Equal(tensor.Shape{32, 32, 96}) {
		t.Errorf("CIFAR large row 0 shape %v", lrows[0].OutShape)
	}
	if !lrows[7].OutShape.Equal(tensor.Shape{8, 8, 96}) {
		t.Errorf("CIFAR large row 7 shape %v", lrows[7].OutShape)
	}
}

func TestPredictReturnsClass(t *testing.T) {
	m, err := NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(6)
	cls, err := m.Predict(prng.New(7).Tensor(12, 12, 1))
	if err != nil {
		t.Fatal(err)
	}
	if cls < 0 || cls >= 4 {
		t.Errorf("class %d out of range", cls)
	}
}
