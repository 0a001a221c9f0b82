// Command milr-soak runs a scripted chaos-soak campaign against a
// guarded model fleet and grades the paper's availability model (Eq. 6)
// against what the run actually delivered.
//
// A scenario is a seeded script of fault phases — uniform-RBER bit
// flips, correlated bursts across adjacent layers, stuck-at cells,
// whole-model takeover — applied through each protector's Sync gate
// while an open-loop Poisson client swarm keeps traffic flowing and a
// round-robin fleet guard self-heals on a fixed cadence. The same
// -seed replays the identical campaign event for event.
//
// Usage:
//
//	milr-soak                                        # smoke scenario, two tiny nets
//	milr-soak -scenario mixed -models tiny,mnist -seed 7
//	milr-soak -rate 20 -guard-interval 1 -overlap    # denser traffic, scrubs race the swarm
//	milr-soak -json                                  # machine-readable report
//	milr-soak -check -tolerance 0.05                 # CI mode: exit non-zero unless the
//	                                                 # guard healed and |measured-predicted| <= tol
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"milr/internal/core"
	"milr/internal/obs"
	"milr/internal/soak"
	"milr/internal/zoo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "milr-soak:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("milr-soak", flag.ContinueOnError)
	var (
		scenario  = fs.String("scenario", "smoke", "built-in scenario: smoke, rber, bursts, stuck, takeover, mixed")
		seed      = fs.Uint64("seed", 42, "campaign seed; same seed replays the identical event timeline")
		models    = fs.String("models", "tiny,tiny", "comma-separated networks: "+zoo.Names()+" (repeats allowed)")
		rate      = fs.Float64("rate", 0, "arrivals per model per window (0 = scenario default)")
		guard     = fs.Int("guard-interval", 0, "scrub every N windows (0 = scenario default, -1 = no guard)")
		duration  = fs.Duration("duration", 0, "wall-clock budget; truncates the script at a window boundary (0 = run to completion)")
		workers   = fs.Int("workers", 2, "fleet's shared batch-execution budget (0 = serial)")
		batch     = fs.Int("batch", 4, "coalescing batch size")
		overlap   = fs.Bool("overlap", false, "run due scrubs concurrently with the window's traffic (waives deterministic replay)")
		jsonOut   = fs.Bool("json", false, "emit the full report as JSON instead of the table")
		check     = fs.Bool("check", false, "CI mode: fail unless the guard healed and the Eq. 6 fit is within -tolerance")
		tolerance = fs.Float64("tolerance", 0.05, "max |measured - predicted| availability for -check")
		trace     = fs.Int("trace", 0, "record the last N spans (soak.window trees down to tensor.gemm) and dump the timeline to stderr (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sc, err := soak.Builtin(*scenario)
	if err != nil {
		return err
	}
	if *rate > 0 {
		sc.ArrivalsPerWindow = *rate
	}
	switch {
	case *guard > 0:
		sc.GuardEvery = *guard
	case *guard < 0:
		sc.GuardEvery = 0
	}

	targets, err := buildTargets(*models, *seed)
	if err != nil {
		return err
	}

	// The timeline goes to stderr so -json output stays machine-readable.
	ctx := context.Background()
	var tracer *obs.Tracer
	if *trace > 0 {
		tracer = obs.New(obs.Config{Capacity: *trace, Seed: *seed})
		ctx = obs.WithTracer(ctx, tracer, *scenario)
	}

	rep, err := soak.Run(ctx, soak.Config{
		Seed:      *seed,
		Workers:   *workers,
		BatchSize: *batch,
		Overlap:   *overlap,
		MaxWall:   *duration,
	}, sc, targets)
	if err != nil {
		return err
	}
	if tracer != nil {
		fmt.Fprintf(os.Stderr, "last %d spans of %d recorded:\n", len(tracer.Last(*trace)), tracer.Completed())
		if err := obs.WriteTimeline(os.Stderr, tracer.Last(*trace)); err != nil {
			return err
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		rep.WriteTable(stdout)
	}

	if *check {
		return checkReport(rep, *tolerance)
	}
	return nil
}

// buildTargets constructs the protected fleet members: each named
// network initialized and wrapped in a MILR protector under its zoo
// cost policy, with a deterministic input set and the clean model's
// answers as the correctness oracle.
func buildTargets(models string, seed uint64) ([]*soak.Target, error) {
	insts, err := zoo.ParseList(models, seed)
	if err != nil {
		return nil, err
	}
	targets := make([]*soak.Target, len(insts))
	for i, in := range insts {
		m, err := in.Network.Build(in.Seed)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "protecting %s (initialization runs once)...\n", in.Network.Name)
		pr, err := core.NewProtector(m, in.Network.Options(in.Seed))
		if err != nil {
			return nil, err
		}
		inputs, want, err := zoo.Probes(m, in.Seed+1, 16)
		if err != nil {
			return nil, err
		}
		targets[i] = &soak.Target{Name: in.Name, Protector: pr, Inputs: inputs, Want: want}
	}
	return targets, nil
}

// checkReport is the CI gate: the campaign must have injected errors,
// the guard must have healed at least one, no request may have gone
// unanswered, and measured availability must sit within tolerance of
// the Eq. 6 prediction.
func checkReport(rep *soak.Report, tolerance float64) error {
	if rep.Truncated {
		return fmt.Errorf("check: run truncated by -duration before the script finished")
	}
	if rep.Injections == 0 || rep.CorruptedWeights == 0 {
		return fmt.Errorf("check: campaign injected nothing (injections=%d corrupted=%d)", rep.Injections, rep.CorruptedWeights)
	}
	if rep.Heals == 0 {
		return fmt.Errorf("check: guard never healed despite %d injections", rep.Injections)
	}
	if rep.Rejected != 0 || rep.Expired != 0 {
		return fmt.Errorf("check: %d rejected / %d expired in the deterministic admission regime", rep.Rejected, rep.Expired)
	}
	if !rep.Fit.Valid {
		return fmt.Errorf("check: Eq. 6 fit invalid")
	}
	if d := math.Abs(rep.Fit.Delta); d > tolerance {
		return fmt.Errorf("check: |measured-predicted| availability %.6f exceeds tolerance %.6f (predicted=%.6f measured=%.6f)",
			d, tolerance, rep.Fit.Predicted, rep.Fit.Measured)
	}
	fmt.Fprintf(os.Stderr, "check ok: heals=%d delta=%+.6f (tolerance %.3f) elapsed=%v\n",
		rep.Heals, rep.Fit.Delta, tolerance, rep.Elapsed.Round(time.Millisecond))
	return nil
}
