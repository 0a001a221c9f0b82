package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"milr/internal/fleet"
	"milr/internal/tensor"
)

// Fleet load generation: a closed-loop client swarm with a skewed
// per-model traffic mix against one multi-model router, used by
// cmd/milr-fleet and — with a single spec — BenchmarkTracerOverhead.
// Closed-loop means each client issues its next request only after the
// previous answer, the regime under which coalescing shows up directly
// as batch fill. Each model gets its own client crowd, so the mix
// (e.g. 80/20) is expressed as client counts; queue-cap rejections
// (fleet.ErrQueueFull) are counted as shed load, not errors, so capped
// routers can be driven past saturation.

// ModelPredictor is the routing surface RunFleetLoad drives. Both the
// public milr.Fleet and the internal fleet.Fleet satisfy it.
type ModelPredictor interface {
	Predict(ctx context.Context, model string, x *tensor.Tensor) (int, error)
}

// FleetLoadSpec is one model's share of the traffic mix.
type FleetLoadSpec struct {
	// Model is the registered model name to route to.
	Model string
	// Inputs are cycled round-robin by every client of this model.
	Inputs []*tensor.Tensor
	// Want, when non-nil, holds the expected class per input (same
	// indexing as Inputs); divergences are counted as Mismatches.
	Want []int
	// Clients is the number of concurrent closed-loop clients issuing
	// requests to this model; PerClient is how many requests each one
	// issues.
	Clients, PerClient int
}

// FleetModelLoad is one model's slice of a FleetLoadResult.
type FleetModelLoad struct {
	// Requests counts answered requests; Rejected counts queue-cap
	// fast-fails; Mismatches counts answers diverging from Want.
	Requests, Rejected, Mismatches int64
}

// FleetLoadResult summarizes one fleet load run.
type FleetLoadResult struct {
	// Requests, Rejected and Mismatches aggregate every model's
	// counters; PerModel holds the breakdown.
	Requests, Rejected, Mismatches int64
	// PerModel is keyed by FleetLoadSpec.Model.
	PerModel map[string]FleetModelLoad
	// Elapsed is the wall-clock of the whole swarm; Throughput is
	// answered Requests / Elapsed in requests per second.
	Elapsed    time.Duration
	Throughput float64
}

// RunFleetLoad drives every spec's client crowd concurrently against
// one router and reports per-model and aggregate results. A request
// refused with fleet.ErrQueueFull is counted as Rejected and the
// client moves on (shed load); any other error aborts the run.
func RunFleetLoad(ctx context.Context, p ModelPredictor, specs []FleetLoadSpec) (FleetLoadResult, error) {
	if p == nil {
		return FleetLoadResult{}, fmt.Errorf("bench: fleet load needs a router")
	}
	if len(specs) == 0 {
		return FleetLoadResult{}, fmt.Errorf("bench: fleet load needs at least one model spec")
	}
	// Every spec is checked before any client starts, so a refused run
	// leaves no client behind.
	for _, spec := range specs {
		if len(spec.Inputs) == 0 {
			return FleetLoadResult{}, fmt.Errorf("bench: model %q spec has no inputs", spec.Model)
		}
		if spec.Clients < 1 || spec.PerClient < 1 {
			return FleetLoadResult{}, fmt.Errorf("bench: model %q spec needs clients >= 1 and perClient >= 1, got %d/%d",
				spec.Model, spec.Clients, spec.PerClient)
		}
		if spec.Want != nil && len(spec.Want) != len(spec.Inputs) {
			return FleetLoadResult{}, fmt.Errorf("bench: model %q: %d expected classes for %d inputs",
				spec.Model, len(spec.Want), len(spec.Inputs))
		}
	}
	type counters struct {
		requests, rejected, mismatches atomic.Int64
	}
	counts := make([]counters, len(specs))
	var wg sync.WaitGroup
	errMu := sync.Mutex{}
	var firstErr error
	start := time.Now()
	for si := range specs {
		spec := specs[si]
		c := &counts[si]
		for cl := 0; cl < spec.Clients; cl++ {
			cl := cl
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < spec.PerClient; r++ {
					idx := (cl*spec.PerClient + r) % len(spec.Inputs)
					got, err := p.Predict(ctx, spec.Model, spec.Inputs[idx])
					if errors.Is(err, fleet.ErrQueueFull) {
						c.rejected.Add(1)
						continue
					}
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("bench: fleet client %s/%d request %d: %w", spec.Model, cl, r, err)
						}
						errMu.Unlock()
						return
					}
					c.requests.Add(1)
					if spec.Want != nil && got != spec.Want[idx] {
						c.mismatches.Add(1)
					}
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return FleetLoadResult{}, firstErr
	}
	res := FleetLoadResult{
		PerModel: make(map[string]FleetModelLoad, len(specs)),
		Elapsed:  elapsed,
	}
	for si, spec := range specs {
		ml := FleetModelLoad{
			Requests:   counts[si].requests.Load(),
			Rejected:   counts[si].rejected.Load(),
			Mismatches: counts[si].mismatches.Load(),
		}
		// Two specs naming the same model merge.
		agg := res.PerModel[spec.Model]
		agg.Requests += ml.Requests
		agg.Rejected += ml.Rejected
		agg.Mismatches += ml.Mismatches
		res.PerModel[spec.Model] = agg
		res.Requests += ml.Requests
		res.Rejected += ml.Rejected
		res.Mismatches += ml.Mismatches
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.Throughput = float64(res.Requests) / sec
	}
	return res, nil
}
