// Multi-model serving with fault isolation: the fleet router's pitch
// in one program. Two differently-sized networks — a tiny 12×12 net
// and the paper's MNIST net — serve concurrent client crowds through
// one milr.Fleet sharing a single batch budget. Mid-run, a fault
// injector corrupts the tiny model's weights through its Sync gate
// while the fleet guard round-robins self-heal scrubs; the MNIST
// model, registered unprotected in the same fleet, must sail through
// bit-identical and with its latency untouched, because scrubs and
// corruption serialize only against the *corrupted* model's batches.
//
//	go run ./examples/fleet
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
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
		clients   = 8 // per model
		perClient = 30
	)
	ctx := context.Background()

	// One Runtime carries the fleet policy: the shared batch budget
	// (WithWorkers), per-model coalescing, a queue cap so open-loop
	// overload would shed instead of piling up, and a default deadline
	// so no caller can wait forever.
	rt := milr.NewRuntime(
		milr.WithSeed(seed),
		milr.WithWorkers(-1),
		milr.WithBatchSize(8),
		milr.WithMaxBatchDelay(2*time.Millisecond),
		milr.WithQueueCap(256),
		milr.WithDefaultDeadline(5*time.Second),
	)

	type net struct {
		name   string
		model  *milr.Model
		probes []*milr.Tensor
		want   []int
	}
	build := func(name string, netSeed uint64) (net, error) {
		entry, err := zoo.Lookup(name)
		if err != nil {
			return net{}, err
		}
		m, err := entry.Build(netSeed)
		if err != nil {
			return net{}, err
		}
		probes, want, err := zoo.Probes(m, netSeed+7, clients)
		return net{name: name, model: m, probes: probes, want: want}, err
	}
	tiny, err := build("tiny", seed)
	if err != nil {
		return err
	}
	mnist, err := build("mnist", seed+1)
	if err != nil {
		return err
	}

	// Protect the tiny model (it is the one that will be corrupted) and
	// register both behind one fleet. MNIST gets the heavier fair-share
	// weight: it is the bigger net serving the same crowd.
	fmt.Println("protecting the tiny model with MILR...")
	prot, err := rt.Protect(ctx, tiny.model)
	if err != nil {
		return err
	}
	fl := milr.NewFleet(rt)
	defer fl.Close()
	if err := fl.RegisterProtected(tiny.name, prot, milr.WithModelWeight(1)); err != nil {
		return err
	}
	if err := fl.Register(mnist.name, mnist.model, milr.WithModelWeight(2)); err != nil {
		return err
	}
	if err := fl.StartGuard(ctx, 5*time.Millisecond); err != nil {
		return err
	}

	// Corruption bursts hit ONLY the tiny model, through its Sync gate.
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
				prot.Sync(func() { inj.WholeWeights(tiny.model, 0.002) })
			}
		}
	}()

	// Both client crowds run concurrently against the shared budget.
	var wg sync.WaitGroup
	var tinyDegraded, mnistDegraded atomic.Int64
	swarm := func(n net, degraded *atomic.Int64) {
		for c := 0; c < clients; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < perClient; r++ {
					got, err := fl.Predict(ctx, n.name, n.probes[c])
					if err != nil {
						log.Printf("%s client %d: %v", n.name, c, err)
						return
					}
					if got != n.want[c] {
						degraded.Add(1)
					}
				}
			}()
		}
	}
	swarm(tiny, &tinyDegraded)
	swarm(mnist, &mnistDegraded)
	wg.Wait()
	close(stop)
	<-injDone

	st := fl.Stats()
	for _, name := range []string{tiny.name, mnist.name} {
		ms := st.Models[name]
		fmt.Printf("%-6s served %4d requests in %4d batches (mean fill %.2f), p50 %v, p99 %v, scrubs %d\n",
			name, ms.Served, ms.Batches, ms.MeanBatchFill, ms.P50, ms.P99, ms.Scrubs)
	}
	fmt.Printf("degraded answers during corruption bursts: %s %d, %s %d\n",
		tiny.name, tinyDegraded.Load(), mnist.name, mnistDegraded.Load())

	// The healthy model must be untouched by its neighbour's faults:
	// not one degraded answer, ever.
	if mnistDegraded.Load() != 0 {
		return fmt.Errorf("the healthy model degraded — fault isolation broken")
	}
	// And after one final self-heal, the corrupted model must be back
	// to bit-identical clean answers through the same fleet.
	if _, _, err := prot.SelfHealContext(ctx); err != nil {
		return err
	}
	for c := 0; c < clients; c++ {
		got, err := fl.Predict(ctx, tiny.name, tiny.probes[c])
		if err != nil {
			return err
		}
		if got != tiny.want[c] {
			return fmt.Errorf("tiny client %d did not converge back to the clean answer", c)
		}
	}
	fmt.Println("healthy model unaffected; corrupted model healed back to bit-identical answers.")
	return nil
}
