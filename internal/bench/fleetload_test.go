package bench_test

import (
	"context"
	"testing"
	"time"

	"milr/internal/bench"
	"milr/internal/fleet"
	"milr/internal/nn"
	"milr/internal/prng"
	"milr/internal/tensor"
)

func TestRunFleetLoadSkewedMix(t *testing.T) {
	build := func(seed uint64) (*nn.Model, []*tensor.Tensor, []int) {
		m, err := nn.NewTinyNet()
		if err != nil {
			t.Fatal(err)
		}
		m.InitWeights(seed)
		stream := prng.New(seed + 9)
		xs := make([]*tensor.Tensor, 4)
		want := make([]int, 4)
		for i := range xs {
			xs[i] = stream.Tensor(12, 12, 1)
			want[i], err = m.Predict(xs[i])
			if err != nil {
				t.Fatal(err)
			}
		}
		return m, xs, want
	}
	mA, xsA, wantA := build(1)
	mB, xsB, wantB := build(2)
	f := fleet.New(fleet.Config{Workers: 2, BatchSize: 4, MaxDelay: time.Millisecond})
	defer f.Close()
	if err := f.Register("hot", mA, fleet.ModelConfig{Weight: 4}); err != nil {
		t.Fatal(err)
	}
	if err := f.Register("cold", mB, fleet.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	res, err := bench.RunFleetLoad(context.Background(), f, []bench.FleetLoadSpec{
		{Model: "hot", Inputs: xsA, Want: wantA, Clients: 8, PerClient: 5},
		{Model: "cold", Inputs: xsB, Want: wantB, Clients: 2, PerClient: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 50 || res.Rejected != 0 {
		t.Fatalf("requests/rejected = %d/%d, want 50/0", res.Requests, res.Rejected)
	}
	if res.Mismatches != 0 {
		t.Fatalf("%d mismatches on clean weights — routing broke bit-identity", res.Mismatches)
	}
	if res.PerModel["hot"].Requests != 40 || res.PerModel["cold"].Requests != 10 {
		t.Fatalf("per-model mix %+v, want 40/10", res.PerModel)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput %v", res.Throughput)
	}
	if _, err := bench.RunFleetLoad(context.Background(), f, nil); err == nil {
		t.Fatal("empty spec list accepted")
	}
	if _, err := bench.RunFleetLoad(context.Background(), f, []bench.FleetLoadSpec{{Model: "hot"}}); err == nil {
		t.Fatal("spec without inputs accepted")
	}
}

func TestRunFleetLoadCountsRejectsAsShedLoad(t *testing.T) {
	m, xs, _ := func() (*nn.Model, []*tensor.Tensor, []int) {
		m, err := nn.NewTinyNet()
		if err != nil {
			t.Fatal(err)
		}
		m.InitWeights(5)
		stream := prng.New(6)
		xs := []*tensor.Tensor{stream.Tensor(12, 12, 1)}
		return m, xs, nil
	}()
	// A 1-slot queue under 8 concurrent clients must shed load without
	// failing the run.
	f := fleet.New(fleet.Config{Workers: 1, BatchSize: 1, MaxDelay: 0, QueueCap: 1})
	defer f.Close()
	if err := f.Register("m", m, fleet.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	res, err := bench.RunFleetLoad(context.Background(), f, []bench.FleetLoadSpec{
		{Model: "m", Inputs: xs, Clients: 8, PerClient: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests+res.Rejected != 80 {
		t.Fatalf("answered %d + rejected %d != 80 issued", res.Requests, res.Rejected)
	}
	if res.Requests == 0 {
		t.Fatal("everything rejected — the queue never served")
	}
}

// TestRunFleetLoadSingleModelCoalesces is the single-server swarm as
// one spec: 8 closed-loop clients against a one-model fleet with a 2 ms
// window must all be answered bit-identically and must coalesce.
func TestRunFleetLoadSingleModelCoalesces(t *testing.T) {
	m, err := nn.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(42)
	stream := prng.New(3)
	inputs := make([]*tensor.Tensor, 8)
	want := make([]int, 8)
	for i := range inputs {
		inputs[i] = stream.Tensor(12, 12, 1)
		want[i], err = m.Predict(inputs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	f := fleet.New(fleet.Config{BatchSize: 4, MaxDelay: 2 * time.Millisecond})
	defer f.Close()
	if err := f.Register("m", m, fleet.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	res, err := bench.RunFleetLoad(context.Background(), f, []bench.FleetLoadSpec{
		{Model: "m", Inputs: inputs, Want: want, Clients: 8, PerClient: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := f.Stats().Models["m"]
	if res.Requests != 48 || st.Served != 48 {
		t.Fatalf("requests %d served %d, want 48/48", res.Requests, st.Served)
	}
	if res.Mismatches != 0 {
		t.Fatalf("%d mismatches against direct predictions on clean weights", res.Mismatches)
	}
	if res.Throughput <= 0 {
		t.Fatalf("non-positive throughput %v", res.Throughput)
	}
	if st.MeanBatchFill <= 1 {
		t.Fatalf("closed-loop swarm of 8 clients did not coalesce: %+v", st)
	}
}

func TestRunFleetLoadValidation(t *testing.T) {
	m, err := nn.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(1)
	f := fleet.New(fleet.Config{BatchSize: 2})
	defer f.Close()
	if err := f.Register("m", m, fleet.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	x := []*tensor.Tensor{prng.New(1).Tensor(12, 12, 1)}
	ctx := context.Background()
	if _, err := bench.RunFleetLoad(ctx, nil, []bench.FleetLoadSpec{{Model: "m", Inputs: x, Clients: 1, PerClient: 1}}); err == nil {
		t.Fatal("nil router accepted")
	}
	if _, err := bench.RunFleetLoad(ctx, f, []bench.FleetLoadSpec{{Model: "m", Clients: 1, PerClient: 1}}); err == nil {
		t.Fatal("empty input set accepted")
	}
	if _, err := bench.RunFleetLoad(ctx, f, []bench.FleetLoadSpec{{Model: "m", Inputs: x, Want: []int{1, 2}, Clients: 1, PerClient: 1}}); err == nil {
		t.Fatal("mis-sized want accepted")
	}
	if _, err := bench.RunFleetLoad(ctx, f, []bench.FleetLoadSpec{{Model: "m", Inputs: x, Clients: 0, PerClient: 5}}); err == nil {
		t.Fatal("zero clients accepted")
	}
	// A bad later spec refuses the whole run before any client of an
	// earlier, valid spec starts: the fleet serves nothing afterwards.
	before := f.Stats().Served
	if _, err := bench.RunFleetLoad(ctx, f, []bench.FleetLoadSpec{
		{Model: "m", Inputs: x, Clients: 4, PerClient: 200},
		{Model: "m", Clients: 1, PerClient: 1},
	}); err == nil {
		t.Fatal("spec with no inputs accepted after a valid one")
	}
	time.Sleep(100 * time.Millisecond)
	if after := f.Stats().Served; after != before {
		t.Fatalf("refused run left clients behind: the fleet served %d requests after it returned", after-before)
	}
}
