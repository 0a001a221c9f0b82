// Self-healing under soft memory errors: train the paper's MNIST network
// (Table I) on the synthetic MNIST-like dataset, inject random bit flips
// at increasing Raw Bit Error Rates, and compare the accuracy with no
// protection versus MILR self-healing — a miniature of the paper's
// Figure 5 experiment.
//
//	go run ./examples/selfheal
//
// Accuracy is measured with Runtime.Evaluate, the batch-first path that
// stacks each chunk of samples into one GEMM per layer — the same
// kernels the serving front-end (examples/serving) batches requests
// into. The MNIST network has 1.67M parameters; on one CPU core this
// example takes a couple of minutes (training dominates).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"milr"
	"milr/internal/dataset"
	"milr/internal/faults"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const seed = 7
	ctx := context.Background()
	rt := milr.NewRuntime(milr.WithSeed(seed))
	model, err := milr.NewMNISTNet()
	if err != nil {
		return err
	}
	model.InitWeights(seed)

	ds, err := dataset.New(dataset.MNISTLike(seed))
	if err != nil {
		return err
	}
	train, test := ds.TrainTest(200, 60)
	fmt.Println("training the MNIST network on synthetic data...")
	start := time.Now()
	if _, err := milr.Train(model, train, milr.TrainConfig{
		Epochs: 2, BatchSize: 16, LR: 0.03, Momentum: 0.9, Seed: seed,
	}); err != nil {
		return err
	}
	// Runtime.Evaluate runs the batch-first path: one stacked GEMM per
	// conv/dense layer per batch, bit-identical to per-sample inference.
	base, err := rt.Evaluate(ctx, model, test)
	if err != nil {
		return err
	}
	fmt.Printf("trained in %v, baseline accuracy %.1f%%\n\n", time.Since(start).Round(time.Second), 100*base)

	prot, err := rt.Protect(ctx, model)
	if err != nil {
		return err
	}
	clean := model.Snapshot()

	fmt.Printf("%-10s %14s %14s\n", "RBER", "no recovery", "MILR")
	for _, rate := range []float64{1e-6, 1e-5, 1e-4} {
		// Without recovery. Injection goes through the Sync gate, the
		// same way the serving examples corrupt a live model.
		inj := faults.New(seed + uint64(rate*1e9))
		prot.Sync(func() { inj.BitFlips(model, rate) })
		raw, err := rt.Evaluate(ctx, model, test)
		if err != nil {
			return err
		}
		// Same injection, then self-heal.
		if err := model.Restore(clean); err != nil {
			return err
		}
		prot.ResetCRC()
		inj = faults.New(seed + uint64(rate*1e9))
		prot.Sync(func() { inj.BitFlips(model, rate) })
		if _, _, err := prot.SelfHealContext(ctx); err != nil {
			return err
		}
		healed, err := rt.Evaluate(ctx, model, test)
		if err != nil {
			return err
		}
		fmt.Printf("%-10.0e %13.1f%% %13.1f%%\n", rate, 100*raw/base, 100*healed/base)
		if err := model.Restore(clean); err != nil {
			return err
		}
		prot.ResetCRC()
	}
	fmt.Println("\n(for the full Figure 5 reproduction run: go run ./cmd/milr-bench -exp fig5)")
	return nil
}
