// Command milr-fleet load-tests the multi-model serving router: N
// named networks behind one milr.Fleet share a single batch-execution
// budget, and a client swarm with a skewed per-model traffic mix
// drives them either closed-loop (each client waits for its answer) or
// open-loop (exactly rate·duration requests arrive on a fixed schedule
// whether or not the fleet keeps up — the regime where admission control
// earns its keep).
//
// Usage:
//
//	milr-fleet                                        # two tiny nets, equal shares
//	milr-fleet -models mnist -clients 64                   # one model: the single-server load test
//	milr-fleet -models mnist -batch 1 -delay 0             # ... uncoalesced, for the A/B
//	milr-fleet -models mnist,tiny -skew 80,20 -weights 4,1 -clients 32
//	milr-fleet -models mnist -open-loop -rate 2000 -duration 2s -cap 8  # overload: ErrQueueFull sheds load
//	milr-fleet -guard 5ms -corrupt 0.001                   # protected fleet, round-robin self-heal
//	milr-fleet -models tiny -trace 64                      # dump the last 64 spans as a timeline
//
// The tool reports per-model served/rejected counts, batch fill,
// bounded-window p50/p99 latency and fleet-guard scrub counts. Without
// -corrupt every answer must be bit-identical to a direct Model.Predict
// call and any mismatch makes the tool exit non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"milr"
	"milr/internal/bench"
	"milr/internal/faults"
	"milr/internal/obs"
	"milr/internal/zoo"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "milr-fleet:", err)
		os.Exit(1)
	}
}

// modelSpec is one registered network plus its traffic and baseline.
type modelSpec struct {
	name   string
	net    zoo.Network
	model  *milr.Model
	weight float64
	share  float64 // fraction of total traffic
	inputs []*milr.Tensor
	want   []int
	prot   *milr.Protector
}

func run(args []string) error {
	fs := flag.NewFlagSet("milr-fleet", flag.ContinueOnError)
	var (
		models   = fs.String("models", "tiny,tiny", "comma-separated networks: "+zoo.Names()+" (repeats allowed)")
		skew     = fs.String("skew", "", "per-model traffic shares, e.g. 80,20 (any positive scale; must match -models; default: equal shares)")
		weights  = fs.String("weights", "", "per-model fair-share weights (default: proportional to -skew)")
		clients  = fs.Int("clients", 20, "total closed-loop clients, split across models by -skew")
		requests = fs.Int("requests", 30, "requests per closed-loop client")
		batch    = fs.Int("batch", 8, "coalescing batch size")
		delay    = fs.Duration("delay", milr.DefaultMaxBatchDelay, "coalescing window (0 = flush immediately)")
		workers  = fs.Int("workers", 0, "shared batch budget and GEMM pools (0 = serial, -1 = all cores)")
		seed     = fs.Uint64("seed", 42, "master seed")
		capN     = fs.Int("cap", 0, "per-model admission queue cap (0 = unbounded)")
		deadline = fs.Duration("deadline", 0, "default per-request deadline (0 = none)")
		openLoop = fs.Bool("open-loop", false, "fire requests on a fixed schedule instead of closed-loop clients")
		rate     = fs.Float64("rate", 500, "open-loop arrival rate, requests/second (needs -open-loop)")
		duration = fs.Duration("duration", time.Second, "open-loop run length (needs -open-loop)")
		guard    = fs.Duration("guard", 0, "protect every model and round-robin self-heal on this interval (0 = no guard)")
		corrupt  = fs.Float64("corrupt", 0, "whole-weight corruption rate injected during the run (needs -guard)")
		trace    = fs.Int("trace", 0, "record the last N spans (admission down to tensor.gemm, scrubs included) and dump the timeline after the run (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *corrupt > 0 && *guard <= 0 {
		return fmt.Errorf("-corrupt needs -guard (nothing would heal the injected errors)")
	}

	specs, err := buildSpecs(*models, *skew, *weights, *seed)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var tracer *obs.Tracer
	if *trace > 0 {
		tracer = obs.New(obs.Config{Capacity: *trace, Seed: *seed})
		ctx = obs.WithTracer(ctx, tracer, "milr-fleet")
	}
	rt := milr.NewRuntime(
		milr.WithSeed(*seed),
		milr.WithWorkers(*workers),
		milr.WithBatchSize(*batch),
		milr.WithMaxBatchDelay(*delay),
		milr.WithQueueCap(*capN),
		milr.WithDefaultDeadline(*deadline),
	)
	fl := milr.NewFleet(rt)
	defer fl.Close()
	for _, sp := range specs {
		if *guard > 0 {
			fmt.Printf("protecting %s with MILR (initialization runs once)...\n", sp.name)
			sp.prot, err = rt.With(milr.WithMaxFullSolveTaps(sp.net.MaxFullSolveTaps)).Protect(ctx, sp.model)
			if err != nil {
				return err
			}
			err = fl.RegisterProtected(sp.name, sp.prot, milr.WithModelWeight(sp.weight))
		} else {
			err = fl.Register(sp.name, sp.model, milr.WithModelWeight(sp.weight))
		}
		if err != nil {
			return err
		}
	}
	if *guard > 0 {
		if err := fl.StartGuard(ctx, *guard); err != nil {
			return err
		}
	}

	// Fault injector: corruption lands through each protector's Sync
	// mutation gate, round-robin across models, and the fleet guard
	// heals it between bursts.
	stopInject := make(chan struct{})
	defer close(stopInject)
	if *corrupt > 0 {
		inj := faults.New(*seed + 2)
		go func() {
			ticker := time.NewTicker(2 * *guard)
			defer ticker.Stop()
			for i := 0; ; i++ {
				select {
				case <-stopInject:
					return
				case <-ticker.C:
					sp := specs[i%len(specs)]
					sp.prot.Sync(func() { inj.WholeWeights(sp.model, *corrupt) })
				}
			}
		}()
	}

	if *openLoop {
		_, err = runOpenLoop(ctx, fl, specs, *rate, *duration)
	} else {
		err = runClosedLoop(ctx, fl, specs, *clients, *requests, *corrupt > 0)
	}
	if err != nil {
		return err
	}
	printFleetStats(fl.Stats(), specs, *guard > 0)
	if tracer != nil {
		spans := tracer.Last(*trace)
		fmt.Printf("\nlast %d spans of %d recorded:\n", len(spans), tracer.Completed())
		return obs.WriteTimeline(os.Stdout, spans)
	}
	return nil
}

// buildSpecs parses -models/-skew/-weights into registered-model specs
// with deterministic inputs and their direct (clean) answers.
func buildSpecs(models, skew, weights string, seed uint64) ([]*modelSpec, error) {
	insts, err := zoo.ParseList(models, seed)
	if err != nil {
		return nil, err
	}
	// Without -skew every model gets an equal share, so any model count
	// runs; a -skew of the wrong length is still an error.
	shares := make([]float64, len(insts))
	for i := range shares {
		shares[i] = 1
	}
	if skew != "" {
		if shares, err = parseFloats(skew, len(insts), "-skew"); err != nil {
			return nil, err
		}
	}
	var total float64
	for _, s := range shares {
		if s <= 0 {
			return nil, fmt.Errorf("-skew shares must be positive, got %v", s)
		}
		total += s
	}
	var ws []float64
	if weights != "" {
		if ws, err = parseFloats(weights, len(insts), "-weights"); err != nil {
			return nil, err
		}
	}
	specs := make([]*modelSpec, len(insts))
	for i, in := range insts {
		m, err := in.Network.Build(in.Seed)
		if err != nil {
			return nil, err
		}
		// Default fair-share weights proportional to expected traffic,
		// so the arbiter's split matches the mix.
		sp := &modelSpec{name: in.Name, net: in.Network, model: m, weight: shares[i], share: shares[i] / total}
		if ws != nil {
			sp.weight = ws[i]
		}
		if sp.inputs, sp.want, err = zoo.Probes(m, in.Seed+1, 32); err != nil {
			return nil, err
		}
		specs[i] = sp
	}
	return specs, nil
}

func parseFloats(s string, want int, flagName string) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != want {
		return nil, fmt.Errorf("%s needs %d comma-separated values, got %q", flagName, want, s)
	}
	out := make([]float64, want)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", flagName, err)
		}
		out[i] = v
	}
	return out, nil
}

// runClosedLoop splits -clients across models by skew and drives the
// swarm through bench.RunFleetLoad, enforcing bit-identity on clean
// weights.
func runClosedLoop(ctx context.Context, fl *milr.Fleet, specs []*modelSpec, clients, requests int, corrupted bool) error {
	loadSpecs := make([]bench.FleetLoadSpec, len(specs))
	for i, sp := range specs {
		n := int(float64(clients)*sp.share + 0.5)
		if n < 1 {
			n = 1
		}
		loadSpecs[i] = bench.FleetLoadSpec{
			Model: sp.name, Inputs: sp.inputs, Want: sp.want,
			Clients: n, PerClient: requests,
		}
		fmt.Printf("%-14s %3d clients × %d requests (weight %.1f)\n", sp.name, n, requests, sp.weight)
	}
	fmt.Println()
	res, err := bench.RunFleetLoad(ctx, fl, loadSpecs)
	if err != nil {
		return err
	}
	fmt.Printf("closed loop: %d answered (+%d shed) in %v  →  %.0f req/s\n\n",
		res.Requests, res.Rejected, res.Elapsed.Round(time.Microsecond), res.Throughput)
	if !corrupted && res.Mismatches > 0 {
		return fmt.Errorf("%d answers diverged from direct Predict on clean weights — bit-identity violated", res.Mismatches)
	}
	if corrupted && res.Mismatches > 0 {
		fmt.Printf("%d degraded answers during corruption bursts (healed by the guard)\n\n", res.Mismatches)
	}
	return nil
}

// runOpenLoop precomputes round(rate·duration) arrivals — arrival i due
// at i/rate, split across models by largest traffic deficit — hands the
// schedule to bench.RunOpenLoop, and reports what admission control did
// with the excess. It returns the result it prints.
func runOpenLoop(ctx context.Context, fl *milr.Fleet, specs []*modelSpec, rate float64, duration time.Duration) (bench.OpenLoopResult, error) {
	if rate <= 0 {
		return bench.OpenLoopResult{}, fmt.Errorf("-rate must be positive, got %v", rate)
	}
	targets := make([]bench.OpenLoopTarget, len(specs))
	for i, sp := range specs {
		targets[i] = bench.OpenLoopTarget{Name: sp.name, Inputs: sp.inputs, Want: sp.want}
	}
	n := int(math.Round(rate * duration.Seconds()))
	if n < 1 {
		return bench.OpenLoopResult{}, fmt.Errorf("-rate %v over -duration %v schedules no arrivals", rate, duration)
	}
	arrivals := make([]bench.Arrival, n)
	issued := make([]int, len(specs))
	for k := range arrivals {
		// Weighted-deficit pick keeps the realized mix on target even
		// when shares are uneven.
		pick, best := 0, -1.0
		for i, sp := range specs {
			d := sp.share*float64(k) - float64(issued[i])
			if d > best {
				pick, best = i, d
			}
		}
		arrivals[k] = bench.Arrival{
			Target: pick,
			Input:  issued[pick] % len(specs[pick].inputs),
			Due:    time.Duration(float64(k) / rate * float64(time.Second)),
		}
		issued[pick]++
	}
	res, err := bench.RunOpenLoop(ctx, fl, targets, arrivals)
	if err != nil {
		return res, err
	}
	var total bench.OpenLoopCounts
	for _, c := range res.PerTarget {
		total.Issued += c.Issued
		total.Correct += c.Correct
		total.Wrong += c.Wrong
		total.Rejected += c.Rejected
		total.Expired += c.Expired
	}
	fmt.Printf("open loop: %d arrivals at %.0f req/s (realised %.0f req/s, worst lateness %v) over %v\n",
		total.Issued, rate, float64(total.Issued)/res.IssueElapsed.Seconds(),
		res.MaxLate.Round(time.Microsecond), res.Elapsed.Round(time.Millisecond))
	fmt.Printf("  answered %d, shed (queue full) %d, expired (deadline) %d\n\n",
		total.Correct+total.Wrong, total.Rejected, total.Expired)
	if total.Wrong > 0 {
		fmt.Printf("  %d degraded answers\n\n", total.Wrong)
	}
	return res, nil
}

func printFleetStats(st milr.FleetStats, specs []*modelSpec, guarded bool) {
	names := make([]string, 0, len(st.Models))
	for name := range st.Models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ms := st.Models[name]
		fmt.Printf("%-14s served %5d  rejected %4d  batches %4d  mean fill %.2f  p50 %v  p99 %v",
			name, ms.Served, ms.Rejected, ms.Batches, ms.MeanBatchFill, ms.P50, ms.P99)
		if guarded {
			fmt.Printf("  scrubs %d (failed %d)  heals %d (partial %d)", ms.Scrubs, ms.ScrubFailures, ms.Heals, ms.PartialHeals)
		}
		fmt.Println()
	}
	fmt.Printf("\nfleet total: %d served, %d rejected across %d models\n", st.Served, st.Rejected, len(specs))
}
