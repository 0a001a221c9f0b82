package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"milr"
	"milr/internal/gateway"
	"milr/internal/zoo"
)

// config is the parsed flag set of one gateway process.
type config struct {
	addr         string
	models       string
	modelsConfig string
	allowAdmin   bool
	seed         uint64
	batch        int
	delay        time.Duration
	workers      int
	queueCap     int
	deadline     time.Duration
	maxDeadline  time.Duration
	guard        time.Duration
	drain        time.Duration
	trace        int
	debugAddr    string
}

// parseFlags parses args into a config without touching global flag
// state, so tests drive it directly.
func parseFlags(args []string) (*config, error) {
	cfg := &config{}
	fs := flag.NewFlagSet("milr-gateway", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	fs.StringVar(&cfg.models, "models", "tiny", "comma-separated networks to serve: "+zoo.Names()+" (repeats allowed)")
	fs.StringVar(&cfg.modelsConfig, "models-config", "", `JSON models file ({"models":[{"name":...,"network":...,"seed":...},...]}); overrides -models and is re-read on SIGHUP for live register/replace/unregister`)
	fs.BoolVar(&cfg.allowAdmin, "allow-admin", false, "open the admin routes (DELETE/PUT /v1/models/{name}); they answer 403 otherwise")
	fs.Uint64Var(&cfg.seed, "seed", 42, "master seed for model weights")
	fs.IntVar(&cfg.batch, "batch", 8, "coalescing batch size per model")
	fs.DurationVar(&cfg.delay, "delay", milr.DefaultMaxBatchDelay, "coalescing window (0 = flush immediately)")
	fs.IntVar(&cfg.workers, "workers", -1, "shared batch budget and GEMM pools (0 = serial, -1 = all cores)")
	fs.IntVar(&cfg.queueCap, "cap", 64, "per-model admission queue cap (0 = unbounded)")
	fs.DurationVar(&cfg.deadline, "deadline", 2*time.Second, "default per-request deadline applied when the client sends none (0 = none)")
	fs.DurationVar(&cfg.maxDeadline, "max-deadline", 30*time.Second, "upper clamp on client-requested deadlines (0 = unclamped)")
	fs.DurationVar(&cfg.guard, "guard", 0, "protect every model with MILR and round-robin self-heal on this interval (0 = no guard)")
	fs.DurationVar(&cfg.drain, "drain", 30*time.Second, "graceful-shutdown budget for in-flight requests")
	fs.IntVar(&cfg.trace, "trace", 0, "span ring capacity for cross-layer tracing and GET /v1/trace (0 = tracing off)")
	fs.StringVar(&cfg.debugAddr, "debug-addr", "", "separate listen address for /debug/pprof/ diagnostics (empty = no debug listener; never exposed on -addr)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return cfg, nil
}

// buildFleet constructs the runtime, fleet and admin the gateway
// fronts. The startup model set comes from -models-config when given
// (the same specs a SIGHUP re-reads), else from the -models list with
// per-model derived seeds; every model is protected and
// guard-scheduled when -guard is set. The returned fleetAdmin backs
// the admin routes and the SIGHUP reload loop.
func buildFleet(ctx context.Context, cfg *config) (*milr.Fleet, *fleetAdmin, error) {
	specs, err := initialSpecs(cfg)
	if err != nil {
		return nil, nil, err
	}
	rt := milr.NewRuntime(
		milr.WithSeed(cfg.seed),
		milr.WithWorkers(cfg.workers),
		milr.WithBatchSize(cfg.batch),
		milr.WithMaxBatchDelay(cfg.delay),
		milr.WithQueueCap(cfg.queueCap),
		milr.WithDefaultDeadline(cfg.deadline),
	)
	fl := milr.NewFleet(rt)
	admin := &fleetAdmin{fl: fl, rt: rt, guard: cfg.guard, specs: map[string]gateway.ModelSpec{}}
	for _, s := range specs {
		if _, err := admin.Apply(ctx, s.Name, s.ModelSpec); err != nil {
			fl.Close()
			return nil, nil, err
		}
	}
	if cfg.guard > 0 {
		if err := fl.StartGuard(ctx, cfg.guard); err != nil {
			fl.Close()
			return nil, nil, err
		}
	}
	return fl, admin, nil
}

// initialSpecs derives the startup model set: the -models-config file
// when given, else the -models list as zoo.ParseList names and seeds it.
func initialSpecs(cfg *config) ([]namedSpec, error) {
	if cfg.modelsConfig != "" {
		return loadModelsConfig(cfg.modelsConfig)
	}
	insts, err := zoo.ParseList(cfg.models, cfg.seed)
	if err != nil {
		return nil, err
	}
	specs := make([]namedSpec, len(insts))
	for i, in := range insts {
		specs[i] = namedSpec{
			Name:      in.Name,
			ModelSpec: gateway.ModelSpec{Network: in.Network.Name, Seed: in.Seed},
		}
	}
	return specs, nil
}
