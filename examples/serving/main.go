// Batch-coalescing serving under self-healing: the repository's full
// deployment shape. A MILR-protected model serves a swarm of concurrent
// clients through one milr.Server — single-sample Predict calls
// coalesce into batched GEMMs — while a Guard scrubs the weights on an
// interval and a fault injector corrupts them through the Sync mutation
// gate. Admission never stops: a self-heal pause delays answers, it
// never refuses them, and every answer on clean weights is bit-identical
// to a direct Model.Predict call.
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"milr"
	"milr/internal/faults"
	"milr/internal/zoo"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		seed      = 2026
		clients   = 16
		perClient = 40
	)
	ctx := context.Background()

	// One Runtime carries the whole serving policy: worker pools for
	// the batched GEMMs, the coalescing batch size, and how long a
	// partial batch waits for stragglers.
	rt := milr.NewRuntime(
		milr.WithSeed(seed),
		milr.WithWorkers(-1), // all cores
		milr.WithBatchSize(8),
		milr.WithMaxBatchDelay(2*time.Millisecond),
	)

	model, err := milr.NewTinyNet()
	if err != nil {
		return err
	}
	model.InitWeights(seed)

	// Per-client probe inputs and their clean answers, computed before
	// protection starts — the equivalence baseline.
	probes, want, err := zoo.Probes(model, seed, clients)
	if err != nil {
		return err
	}

	// Protect the model, start the guard's scrub loop, and put the
	// coalescing server in front — all three share one protector, so
	// scrub cycles and inference batches interleave race-free.
	prot, err := rt.Protect(ctx, model)
	if err != nil {
		return err
	}
	guard, err := rt.Guard(ctx, prot, milr.GuardConfig{Interval: 5 * time.Millisecond})
	if err != nil {
		return err
	}
	defer guard.Stop()
	srv, err := rt.NewGuardedServer(prot)
	if err != nil {
		return err
	}
	defer srv.Close()

	// Error bursts land in fault-prone memory while the swarm runs.
	// External weight mutation must go through the Sync gate — that is
	// what makes it race-free against scrubs and inference batches.
	stop := make(chan struct{})
	injDone := make(chan struct{})
	go func() {
		defer close(injDone)
		inj := faults.New(seed)
		ticker := time.NewTicker(10 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				prot.Sync(func() { inj.WholeWeights(model, 0.002) })
			}
		}
	}()

	// The client swarm: every goroutine is an independent closed-loop
	// caller; the server coalesces whoever shows up together.
	var wg sync.WaitGroup
	var degraded sync.Map
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				got, err := srv.Predict(ctx, probes[c])
				if err != nil {
					log.Printf("client %d: %v", c, err)
					return
				}
				if got != want[c] {
					n, _ := degraded.LoadOrStore(c, 0)
					degraded.Store(c, n.(int)+1)
				}
			}
		}()
	}
	wg.Wait()
	// Stop and join the injector before the final heal, so no burst
	// lands between the heal and the verification below.
	close(stop)
	<-injDone

	wrong := 0
	degraded.Range(func(_, v any) bool { wrong += v.(int); return true })
	st := srv.Stats()
	gs := guard.Stats()
	fmt.Printf("served %d requests from %d clients (%d degraded answers during bursts)\n",
		st.Served, clients, wrong)
	fmt.Printf("coalescing: %d batches, mean fill %.2f, histogram %v\n",
		st.Batches, st.MeanBatchFill, st.BatchFill)
	fmt.Printf("latency: p50 ≤ %v, p99 ≤ %v\n", st.P50, st.P99)
	fmt.Printf("guard: %d scrubs, %d detections, %d recoveries, downtime %v\n",
		gs.Scrubs, gs.ErrorsDetected, gs.Recoveries, gs.Downtime.Round(time.Microsecond))

	// After a final heal the service must answer exactly as on clean
	// weights again.
	if _, _, err := prot.SelfHealContext(ctx); err != nil {
		return err
	}
	for c := 0; c < clients; c++ {
		got, err := srv.Predict(ctx, probes[c])
		if err != nil {
			return err
		}
		if got != want[c] {
			return fmt.Errorf("client %d did not converge back to the clean answer", c)
		}
	}
	fmt.Println("all clients back to bit-identical clean answers after self-heal.")
	return nil
}
