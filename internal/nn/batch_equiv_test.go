package nn

import (
	"fmt"
	"math"
	"testing"

	"milr/internal/prng"
	"milr/internal/tensor"
)

// Batch–single equivalence: for each of the four networks, ForwardBatch
// must produce bit-identical logits to B per-sample passes of the
// materialised-im2col oracle (forward_oracle_test.go), at B ∈ {1, 2, 8}
// and worker counts {1, 4}, while issuing at most one GEMM per
// conv/dense layer for the whole batch. Model.Forward and Model.Predict
// are themselves the batch of one, so they cannot be the reference.

func batchInputs(m *Model, b int, seedTag uint64) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, b)
	for i := range xs {
		xs[i] = prng.TensorFor(uint64(i)+1, seedTag, m.InShape()...)
	}
	return xs
}

// gemmLayers counts the conv and dense layers of a model — the upper
// bound on GEMM invocations one batched forward pass may issue.
func gemmLayers(m *Model) int {
	n := 0
	for _, l := range m.Layers() {
		switch l.(type) {
		case *Conv2D, *Dense:
			n++
		}
	}
	return n
}

func TestForwardBatchMatchesSingle(t *testing.T) {
	for name, m := range equivalenceNets(t) {
		for _, workers := range []int{1, 4} {
			m.SetWorkers(workers)
			for _, b := range []int{1, 2, 8} {
				xs := batchInputs(m, b, 31)
				want := make([]*tensor.Tensor, b)
				for i, x := range xs {
					out, err := oracleForward(m, x, false)
					if err != nil {
						t.Fatalf("%s workers=%d single forward: %v", name, workers, err)
					}
					want[i] = out
				}
				before := tensor.GEMMCalls()
				got, err := m.ForwardBatch(xs)
				if err != nil {
					t.Fatalf("%s workers=%d B=%d batch forward: %v", name, workers, b, err)
				}
				calls := tensor.GEMMCalls() - before
				if max := uint64(gemmLayers(m)); calls > max {
					t.Errorf("%s workers=%d B=%d: batch forward issued %d GEMMs, want ≤ %d (one per conv/dense layer)",
						name, workers, b, calls, max)
				}
				for i := range want {
					assertIdentical(t, fmt.Sprintf("%s workers=%d B=%d sample %d", name, workers, b, i), want[i], got[i])
				}
			}
		}
		m.SetWorkers(0)
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	for name, m := range equivalenceNets(t) {
		xs := batchInputs(m, 5, 47)
		preds, err := m.PredictBatch(xs)
		if err != nil {
			t.Fatalf("%s predict batch: %v", name, err)
		}
		for i, x := range xs {
			want, err := oraclePredict(m, x)
			if err != nil {
				t.Fatalf("%s predict: %v", name, err)
			}
			if preds[i] != want {
				t.Errorf("%s sample %d: batch predicted %d, single predicted %d", name, i, preds[i], want)
			}
		}
	}
}

func TestEvaluateBatchMatchesPerSample(t *testing.T) {
	for name, m := range equivalenceNets(t) {
		in := m.InShape()
		samples := make([]Sample, 11) // deliberately not a batch multiple
		for i := range samples {
			samples[i] = Sample{X: prng.TensorFor(uint64(i)+3, 59, in...), Label: i % 3}
		}
		var want float64
		var correct int
		for _, s := range samples {
			pred, err := oraclePredict(m, s.X)
			if err != nil {
				t.Fatalf("%s predict: %v", name, err)
			}
			if pred == s.Label {
				correct++
			}
		}
		want = float64(correct) / float64(len(samples))
		for _, batch := range []int{1, 4, 8, 64} {
			got, err := EvaluateBatch(m, samples, batch)
			if err != nil {
				t.Fatalf("%s batch=%d: %v", name, batch, err)
			}
			if got != want {
				t.Errorf("%s batch=%d: accuracy %v, want %v", name, batch, got, want)
			}
		}
	}
}

// foreignLayer is a layer kind this package does not know: it has no
// stacked or in-place form, so NewModel must reject it.
type foreignLayer struct {
	named
	inner *Activation
}

func (f *foreignLayer) OutShape(in tensor.Shape) (tensor.Shape, error) { return f.inner.OutShape(in) }
func (f *foreignLayer) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	return f.inner.Forward(in)
}
func (f *foreignLayer) ForwardTrain(in *tensor.Tensor) (*tensor.Tensor, Cache, error) {
	return f.inner.ForwardTrain(in)
}
func (f *foreignLayer) Backward(c Cache, dout *tensor.Tensor) (*tensor.Tensor, error) {
	return f.inner.Backward(c, dout)
}

// TestNewModelRejectsForeignLayer: the layer set is checked once, when
// the model is built, so the forward pass never meets a layer it has no
// batched form for.
func TestNewModelRejectsForeignLayer(t *testing.T) {
	if _, err := NewModel(tensor.Shape{4, 6, 5}, NewReLU(), &foreignLayer{inner: NewReLU()}); err == nil {
		t.Fatal("NewModel accepted a layer with no batched form")
	}
}

// TestElementwiseBatchMatchesSingle pins the batch forms of the
// parameter-free and bias layers, which the zoo networks exercise only
// on ordinary values (their biases start at zero): with random
// parameters and inputs carrying -0, ±Inf and NaN, every bit of
// ForwardBatch's output equals the per-sample oracle's, which runs each
// layer's own Forward.
func TestElementwiseBatchMatchesSingle(t *testing.T) {
	bias3, _ := NewBias(5)
	bias2, _ := NewBias(7)
	pool, _ := NewMaxPool2D(2)
	cases := []struct {
		name  string
		in    tensor.Shape
		layer Layer
	}{
		{"bias rank-3", tensor.Shape{4, 6, 5}, bias3},
		{"bias rank-2", tensor.Shape{3, 7}, bias2},
		{"relu", tensor.Shape{4, 6, 5}, NewReLU()},
		{"max pool", tensor.Shape{4, 6, 5}, pool},
		{"flatten", tensor.Shape{4, 6, 5}, NewFlatten()},
	}
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for ci, c := range cases {
		m, err := NewModel(c.in, c.layer)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p, ok := c.layer.(Parameterized); ok {
			if err := p.SetParams(prng.TensorFor(uint64(ci)+1, 71, p.Params().Shape()...)); err != nil {
				t.Fatal(err)
			}
		}
		xs, kept := make([]*tensor.Tensor, 3), make([]*tensor.Tensor, 3)
		for i := range xs {
			xs[i] = prng.TensorFor(uint64(ci*10+i)+1, 73, c.in...)
			for j, v := range specials {
				xs[i].Data()[(i+3*j)%len(xs[i].Data())] = v
			}
			kept[i] = xs[i].Clone()
		}
		got, err := m.ForwardBatch(xs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, x := range xs {
			for j, k := range kept[i].Data() {
				if math.Float32bits(x.Data()[j]) != math.Float32bits(k) {
					t.Fatalf("%s sample %d: ForwardBatch overwrote its input at element %d", c.name, i, j)
				}
			}
			want, err := oracleForward(m, x, false)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !got[i].Shape().Equal(want.Shape()) {
				t.Fatalf("%s sample %d: shape %v, want %v", c.name, i, got[i].Shape(), want.Shape())
			}
			for j, w := range want.Data() {
				if g := got[i].Data()[j]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("%s sample %d element %d: batch %v (%#x), single %v (%#x)",
						c.name, i, j, g, math.Float32bits(g), w, math.Float32bits(w))
				}
			}
		}
	}
}
