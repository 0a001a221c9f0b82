package milr_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"milr"
)

// TestFacadeEndToEnd exercises the documented public workflow: build,
// protect, corrupt, self-heal.
func TestFacadeEndToEnd(t *testing.T) {
	model, err := milr.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(42)
	prot, err := milr.NewRuntime(milr.WithSeed(42)).Protect(context.Background(), model)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one weight the way a plaintext-space error would: full
	// inversion.
	var target milr.Parameterized
	for _, l := range model.Layers() {
		if p, ok := l.(milr.Parameterized); ok {
			target = p
			break
		}
	}
	d := target.Params().Data()
	orig := d[2]
	d[2] = math.Float32frombits(^math.Float32bits(d[2]))
	det, rec, err := prot.SelfHeal()
	if err != nil {
		t.Fatal(err)
	}
	if !det.HasErrors() {
		t.Fatal("corruption undetected")
	}
	if !rec.AllRecovered() {
		t.Fatalf("not recovered: %+v", rec.Results)
	}
	if diff := math.Abs(float64(d[2] - orig)); diff > 1e-4 {
		t.Fatalf("weight off by %g after self-heal", diff)
	}
}

func TestFacadeOptionsAndStorage(t *testing.T) {
	model, err := milr.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(1)
	prot, err := milr.NewRuntime(milr.WithSeed(1)).Protect(context.Background(), model)
	if err != nil {
		t.Fatal(err)
	}
	rep := prot.Storage()
	if rep.MILRBytes() <= 0 {
		t.Error("degenerate storage report")
	}
	if len(prot.PlanInfo()) != model.NumLayers() {
		t.Error("plan info length mismatch")
	}
}

func TestFacadeTrainEvaluate(t *testing.T) {
	model, err := milr.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(3)
	// Trivial dataset, just exercising the façade paths.
	var samples []milr.Sample
	for c := 0; c < 4; c++ {
		x := milr.NewTensor(12, 12, 1)
		d := x.Data()
		for i := range d {
			if i%4 == c {
				d[i] = 1
			}
		}
		samples = append(samples, milr.Sample{X: x, Label: c})
	}
	if _, err := milr.Train(model, samples, milr.TrainConfig{Epochs: 2, BatchSize: 2, LR: 0.05}); err != nil {
		t.Fatal(err)
	}
	if _, err := milr.NewRuntime().Evaluate(context.Background(), model, samples); err != nil {
		t.Fatal(err)
	}
}

func TestTensorFromSliceExported(t *testing.T) {
	x, err := milr.TensorFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Shape().Equal(milr.Shape{2, 2}) {
		t.Errorf("shape %v", x.Shape())
	}
}

func TestFacadePersistence(t *testing.T) {
	model, err := milr.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(8)
	prot, err := milr.NewRuntime(milr.WithSeed(8)).Protect(context.Background(), model)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := milr.SaveProtector(prot, &buf); err != nil {
		t.Fatal(err)
	}
	prot2, err := milr.LoadProtector(bytes.NewReader(buf.Bytes()), model)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := prot2.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasErrors() {
		t.Fatalf("clean network flagged after facade load: %+v", rep.Findings)
	}
}
