// Command benchmark is the repository's benchmark: named workloads that
// drive the real gateway handler, from JSON request to self-heal, and
// report the end-to-end metrics and per-layer metrics listed in
// BENCHMARK.json at the root of the repository.
//
// It is run through benchmark/run.sh, which compiles a fresh binary
// first:
//
//	bash benchmark/run.sh --workload predict-mnist-closed --seed 1 --seconds 18 --trace 0
//	bash benchmark/run.sh -workload all -sets 2 -out benchmark/out
//
// One process runs one workload, so that peak memory belongs to it.
// Every workload builds a milr.Fleet the way cmd/milr-gateway does
// (batch 8, 2 ms window, queue cap 64, 2 s default deadline, all cores,
// weights from InitWeights(42)), puts the real gateway.Gateway in front
// of it and calls ServeHTTP in-process, so JSON decoding, admission,
// coalescing, the forward pass, scrubs and heals are all on the
// measured path. The workload seed makes the inputs, the arrival
// schedule and every fault position; every answer is checked against
// an oracle computed from clean weights.
//
// With -trace 0 the process prints the end-to-end metrics. With
// -trace 1 it measures a short untraced reference window and then a
// traced window — its own spans around ServeHTTP, Backend.Predict and
// ScrubOnce, plus the spans the program's tracer already records —
// folds them into per-layer self times, runs the direct layer probes,
// and prints the per-layer metrics. The last line of standard output
// is one JSON object; everything meant for people goes to standard
// error. With -workload all it re-executes itself once per workload
// and pass, and with -sets 2 it checks that two sets agree within the
// bounds BENCHMARK.json fixes.
//
// README.md in this directory defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// commit and buildTime are stamped by run.sh (-ldflags -X); a binary
// built any other way says so in its provenance header.
var (
	commit    = "unknown"
	buildTime = "unknown (not built by benchmark/run.sh)"
)

// config is one process's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	sets     int
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "all", "workload name from BENCHMARK.json, or all (one child process per workload and pass)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: makes the inputs, the arrival schedule and every fault position")
	fs.Float64Var(&cfg.seconds, "seconds", 18, "length of the measured window in seconds (the warm-up before it is a fifth of this, at most 2 s)")
	fs.IntVar(&trace, "trace", 0, "0 = untraced pass, prints the end-to-end metrics; 1 = traced pass, prints the per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "directory for the traced pass's spans and per-layer table (written when the run ends; empty = do not write)")
	fs.IntVar(&cfg.sets, "sets", 1, "with -workload all: run this many full sets and fail if an end-to-end metric's spread exceeds its bound")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace wants 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("-seconds must be positive, got %v", cfg.seconds)
	}
	if cfg.sets < 1 {
		return cfg, fmt.Errorf("-sets must be at least 1, got %d", cfg.sets)
	}
	return cfg, nil
}

// result is the JSON object a single-workload process prints as the
// last line of its standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if cfg.workload == "all" {
		if err := runAll(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	wl, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %v, or all)\n", cfg.workload, workloadNames())
		os.Exit(2)
	}
	printProvenance(cfg)
	res, rep, err := runWorkload(wl, cfg)
	if err != nil {
		// No result line: a run that could not measure must not look
		// like one that measured.
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	rep.print(os.Stderr)
	if cfg.out != "" && cfg.trace {
		if err := rep.write(cfg.out, wl.name); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %s: answers differ from the oracle's (%d of %d operations failed)\n", wl.name, res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// printProvenance writes the header every run carries (SNIPPETS #3):
// what was built, from what, and on what it runs.
func printProvenance(cfg config) {
	warm, window := phaseLengths(cfg.seconds)
	fmt.Fprintf(os.Stderr, "# milr benchmark  commit=%s  built=%s  %s  NumCPU=%d  GOMAXPROCS=%d  workers=%d\n",
		commit, buildTime, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0))
	fmt.Fprintf(os.Stderr, "# workload=%s  seed=%d  trace=%v  warm-up=%v  window=%v\n",
		cfg.workload, cfg.seed, cfg.trace, warm, window)
}

// phaseLengths turns -seconds into the warm-up and measured-window
// lengths: the warm-up is a fifth of the window, at most two seconds.
func phaseLengths(seconds float64) (warm, window time.Duration) {
	window = time.Duration(seconds * float64(time.Second))
	warm = window / 5
	if warm > 2*time.Second {
		warm = 2 * time.Second
	}
	return warm, window
}
