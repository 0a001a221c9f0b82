package milr_test

import (
	"bytes"
	"context"
	"fmt"

	"milr"
)

// Runnable façade examples. These run under `go test` (their output is
// asserted), so the quick-start snippets in the docs can never rot; the
// docs lint (TestFacadeExamplesPresent) enforces that they exist.

// ExampleProtector_SelfHealContext walks the engine's core loop: protect
// a model, corrupt it in fault-prone memory, and let one self-heal
// cycle detect and re-solve the damage. The scrub runs the batched
// segment pipeline — one golden-propagation sweep per checkpoint
// segment — and is bit-identical to healing layer by layer.
func ExampleProtector_SelfHealContext() {
	ctx := context.Background()
	rt := milr.NewRuntime(milr.WithSeed(42), milr.WithWorkers(2))

	model, err := milr.NewTinyNet()
	if err != nil {
		panic(err)
	}
	model.InitWeights(42)

	prot, err := rt.Protect(ctx, model) // MILR initialization, runs once
	if err != nil {
		panic(err)
	}

	// Corrupt a protected layer's weights. External writers must route
	// through Sync, the engine's race-free mutation gate.
	prot.Sync(func() {
		for _, l := range model.Layers() {
			if p, ok := l.(milr.Parameterized); ok {
				p.Params().Data()[0] += 40
				break
			}
		}
	})

	det, rec, err := prot.SelfHealContext(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println("erroneous layers:", len(det.Erroneous()))
	fmt.Println("all recovered:", rec.AllRecovered())
	// Output:
	// erroneous layers: 1
	// all recovered: true
}

// ExampleNewFleet serves two models through one router: per-model
// coalescing queues, one shared batch budget, and answers that stay
// bit-identical to direct per-model Predict calls.
func ExampleNewFleet() {
	ctx := context.Background()
	rt := milr.NewRuntime(milr.WithSeed(42), milr.WithBatchSize(4))
	fl := milr.NewFleet(rt)
	defer fl.Close()

	modelA, err := milr.NewTinyNet()
	if err != nil {
		panic(err)
	}
	modelA.InitWeights(1)
	modelB, err := milr.NewTinyNet()
	if err != nil {
		panic(err)
	}
	modelB.InitWeights(2)
	if err := fl.Register("a", modelA, milr.WithModelWeight(2)); err != nil {
		panic(err)
	}
	if err := fl.Register("b", modelB); err != nil {
		panic(err)
	}

	vals := make([]float32, 12*12)
	for i := range vals {
		vals[i] = float32(i%7) / 7
	}
	x, err := milr.TensorFromSlice(vals, 12, 12, 1)
	if err != nil {
		panic(err)
	}

	for _, name := range []string{"a", "b"} {
		model := modelA
		if name == "b" {
			model = modelB
		}
		direct, err := model.Predict(x)
		if err != nil {
			panic(err)
		}
		routed, err := fl.Predict(ctx, name, x)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s routed == direct: %v\n", name, routed == direct)
	}
	// Output:
	// a routed == direct: true
	// b routed == direct: true
}

// ExampleFleet_RegisterProtected is the guarded deployment: a protected
// model serves through the fleet, its batches inside the protector's
// engine lock, while scrub cycles detect and heal corruption. A
// production fleet runs the cycles on a schedule (StartGuard); ScrubOnce
// runs one synchronously.
func ExampleFleet_RegisterProtected() {
	ctx := context.Background()
	rt := milr.NewRuntime(milr.WithSeed(7))
	model, err := milr.NewTinyNet()
	if err != nil {
		panic(err)
	}
	model.InitWeights(7)
	prot, err := rt.Protect(ctx, model)
	if err != nil {
		panic(err)
	}
	fl := milr.NewFleet(rt)
	defer fl.Close()
	if err := fl.RegisterProtected("tiny", prot); err != nil {
		panic(err)
	}

	x := milr.NewTensor(12, 12, 1)
	for i := range x.Data() {
		x.Data()[i] = float32(i%5) / 5
	}
	clean, err := fl.Predict(ctx, "tiny", x)
	if err != nil {
		panic(err)
	}

	// A fault lands in a protected weight, through the mutation gate.
	prot.Sync(func() {
		model.Layer(0).(milr.Parameterized).Params().Data()[3] += 50
	})

	name, res, err := fl.ScrubOnce(ctx)
	if err != nil {
		panic(err)
	}
	served, err := fl.Predict(ctx, "tiny", x)
	if err != nil {
		panic(err)
	}
	fmt.Printf("scrubbed %s: errors detected %v, heal verified %v\n", name, res.ErrorsDetected, res.Recovered)
	fmt.Println("served answer equals the clean one:", served == clean)
	// Output:
	// scrubbed tiny: errors detected true, heal verified true
	// served answer equals the clean one: true
}

// ExampleLoadProtector persists a protector's golden data and reattaches
// it after a restart, skipping the initialization phase; the reloaded
// protector heals the model as the original would.
func ExampleLoadProtector() {
	ctx := context.Background()
	model, err := milr.NewTinyNet()
	if err != nil {
		panic(err)
	}
	model.InitWeights(8)
	prot, err := milr.NewRuntime(milr.WithSeed(8)).Protect(ctx, model)
	if err != nil {
		panic(err)
	}
	var store bytes.Buffer // stands in for an SSD or persistent memory
	if err := milr.SaveProtector(prot, &store); err != nil {
		panic(err)
	}

	// After a restart: the same weights, the stored golden data.
	restored, err := milr.LoadProtector(&store, model)
	if err != nil {
		panic(err)
	}
	restored.Sync(func() {
		model.Layer(0).(milr.Parameterized).Params().Data()[0] += 40
	})
	det, rec, err := restored.SelfHealContext(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println("erroneous layers:", det.Erroneous())
	fmt.Println("all recovered:", rec.AllRecovered())
	// Output:
	// erroneous layers: [0]
	// all recovered: true
}
