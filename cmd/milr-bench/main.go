// Command milr-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	milr-bench -exp all                      # everything, scaled down
//	milr-bench -exp fig5 -runs 40 -full      # one figure at paper scale
//	milr-bench -exp table4,table5
//	milr-bench -exp fig9 -workers 0          # shard campaign over all cores
//	milr-bench -exp fig9 -cpusweep 1,2,4     # wall-clock/speedup table
//	milr-bench -list                         # what can be regenerated
//
// Experiment ids match the paper: fig5..fig12, table1..table10 (tables
// 1–3 are the architectures, 4/6/8 whole-layer recovery, 5/7/9 storage,
// 10 timing). Trained weights are cached under -cache so repeated
// invocations skip training.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"milr/internal/bench"
	"milr/internal/zoo"
)

type experiment struct {
	id    string
	title string
	// network is the zoo network the experiment runs on; "" (the
	// architecture tables) builds no environment and runs on nil.
	network string
	run     func(*bench.Env, *config) error
}

type config struct {
	runs    int
	test    int
	train   int
	epochs  int
	seed    uint64
	full    bool
	cache   string
	verbose bool
	workers int
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "milr-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("milr-bench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "comma-separated experiment ids (fig5..fig12, table1..table10, all)")
		runs     = fs.Int("runs", 0, "runs per error-rate point (0 = scale default)")
		test     = fs.Int("test", 0, "evaluation samples per accuracy measurement (0 = scale default)")
		train    = fs.Int("train", 0, "synthetic training samples (0 = scale default)")
		epochs   = fs.Int("epochs", 0, "training epochs (0 = scale default)")
		seed     = fs.Uint64("seed", 42, "master seed")
		full     = fs.Bool("full", false, "paper-scale settings (slow: hours on one core)")
		cache    = fs.String("cache", ".milr-cache", "trained-weight cache directory")
		list     = fs.Bool("list", false, "list experiments and exit")
		verbose  = fs.Bool("v", true, "progress output on stderr")
		workers  = fs.Int("workers", 1, "worker count for campaigns, recovery and GEMM (1 = serial, 0 = all cores)")
		cpusweep = fs.String("cpusweep", "", "comma-separated worker counts (e.g. 1,2,4): run each selected experiment at every count and print a wall-clock/speedup table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range experiments() {
			fmt.Printf("%-8s %-16s %s\n", e.id, e.network, e.title)
		}
		return nil
	}
	cfg := &config{runs: *runs, test: *test, train: *train, epochs: *epochs,
		seed: *seed, full: *full, cache: *cache, verbose: *verbose,
		workers: workerCount(*workers)}

	want := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]
	selected := make([]experiment, 0)
	for _, e := range experiments() {
		if all || want[e.id] {
			selected = append(selected, e)
			delete(want, e.id)
		}
	}
	delete(want, "all")
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return fmt.Errorf("unknown experiment ids: %s (use -list)", strings.Join(unknown, ", "))
	}
	if len(selected) == 0 {
		return fmt.Errorf("no experiments selected")
	}

	counts, err := parseCPUSweep(*cpusweep)
	if err != nil {
		return err
	}

	// Group by network so each environment is built (and trained) once.
	// Worker-count changes retune the live environments (SetWorkers), so
	// a -cpusweep reuses the trained weights across every count.
	envs := map[string]*bench.Env{}
	var speedups []bench.SpeedupRow
	for _, n := range counts {
		for _, e := range selected {
			env, err := envFor(envs, e.network, cfg)
			if err != nil {
				return fmt.Errorf("experiment %s: %w", e.id, err)
			}
			if n != 0 && env != nil {
				env.SetWorkers(workerCount(n))
			}
			start := time.Now()
			if err := e.run(env, cfg); err != nil {
				return fmt.Errorf("experiment %s: %w", e.id, err)
			}
			if n != 0 {
				speedups = append(speedups, bench.SpeedupRow{ID: e.id, Workers: n, Elapsed: time.Since(start)})
			}
		}
	}
	if len(speedups) > 0 {
		// Reorder per experiment so the speedup baseline is each
		// experiment's first measured count.
		ordered := make([]bench.SpeedupRow, 0, len(speedups))
		for _, e := range selected {
			for _, r := range speedups {
				if r.ID == e.id {
					ordered = append(ordered, r)
				}
			}
		}
		bench.RenderSpeedup(os.Stdout, "Worker sweep: wall-clock per experiment", ordered)
	}
	return nil
}

// workerCount maps the flag convention (0 = all cores) to the internal
// one (negative = GOMAXPROCS, see bench.Config.Workers).
func workerCount(n int) int {
	if n == 0 {
		return -1
	}
	return n
}

// parseCPUSweep parses -cpusweep. An empty flag yields the single
// sentinel count 0, meaning "run once with -workers and no sweep table".
func parseCPUSweep(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return []int{0}, nil
	}
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -cpusweep entry %q (want positive integers)", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// envFor returns the network's environment, building it on first use;
// no network ("") means no environment (nil).
func envFor(envs map[string]*bench.Env, network string, cfg *config) (*bench.Env, error) {
	if env, ok := envs[network]; ok || network == "" {
		return env, nil
	}
	bcfg := bench.DefaultConfig(cfg.seed)
	if cfg.full {
		bcfg = bench.FullConfig(cfg.seed)
	}
	if cfg.runs > 0 {
		bcfg.Runs = cfg.runs
	}
	if cfg.test > 0 {
		bcfg.TestSamples = cfg.test
	}
	if cfg.train > 0 {
		bcfg.TrainSamples = cfg.train
	}
	if cfg.epochs > 0 {
		bcfg.Epochs = cfg.epochs
	}
	if cfg.workers != 1 {
		bcfg.Workers = cfg.workers
	}
	if cfg.verbose {
		bcfg.Verbose = os.Stderr
	}
	env, err := bench.BuildEnv(network, bcfg, cfg.cache)
	if err != nil {
		return nil, err
	}
	envs[network] = env
	return env, nil
}

func experiments() []experiment {
	schemes4 := []bench.Scheme{bench.NoRecovery, bench.ECCOnly, bench.MILROnly, bench.ECCPlusMILR}
	schemes2 := []bench.Scheme{bench.NoRecovery, bench.MILROnly}
	rberFig := func(title string) func(*bench.Env, *config) error {
		return func(env *bench.Env, _ *config) error {
			res, err := bench.RBERSweep(env, bench.PaperRBERRates, schemes4)
			if err != nil {
				return err
			}
			bench.RenderSweep(os.Stdout, title, res)
			return nil
		}
	}
	wwFig := func(title string) func(*bench.Env, *config) error {
		return func(env *bench.Env, _ *config) error {
			res, err := bench.WholeWeightSweep(env, bench.PaperWholeWeightRates, schemes2)
			if err != nil {
				return err
			}
			bench.RenderSweep(os.Stdout, title, res)
			return nil
		}
	}
	layerTable := func(title string) func(*bench.Env, *config) error {
		return func(env *bench.Env, _ *config) error {
			rows, err := bench.WholeLayerTable(env)
			if err != nil {
				return err
			}
			bench.RenderLayerTable(os.Stdout, title, rows)
			return nil
		}
	}
	storageTable := func(title string) func(*bench.Env, *config) error {
		return func(env *bench.Env, _ *config) error {
			bench.RenderStorage(os.Stdout, title, env.Protector.Storage())
			return nil
		}
	}
	archTable := func(network string) func(*bench.Env, *config) error {
		return func(_ *bench.Env, _ *config) error {
			net, err := zoo.Lookup(network)
			if err != nil {
				return err
			}
			m, err := net.New()
			if err != nil {
				return err
			}
			bench.RenderArchitecture(os.Stdout, net.Table+": "+net.Title, m)
			return nil
		}
	}
	return []experiment{
		{"table1", "MNIST network architecture", "", archTable("mnist")},
		{"table2", "CIFAR-10 small architecture", "", archTable("cifar-small")},
		{"table3", "CIFAR-10 large architecture", "", archTable("cifar-large")},
		{"fig5", "MNIST RBER sweep (none/ECC/MILR/ECC+MILR)", "mnist", rberFig("Figure 5: MNIST normalized accuracy vs RBER")},
		{"fig6", "MNIST whole-weight errors", "mnist", wwFig("Figure 6: MNIST whole-weight errors")},
		{"table4", "MNIST whole-layer recovery", "mnist", layerTable("Table IV: MNIST whole-layer error accuracy")},
		{"table5", "MNIST storage overhead", "mnist", storageTable("Table V: MNIST storage overhead")},
		{"fig7", "CIFAR-small RBER sweep", "cifar-small", rberFig("Figure 7: CIFAR-10 small normalized accuracy vs RBER")},
		{"fig8", "CIFAR-small whole-weight errors", "cifar-small", wwFig("Figure 8: CIFAR-10 small whole-weight errors")},
		{"table6", "CIFAR-small whole-layer recovery", "cifar-small", layerTable("Table VI: CIFAR-10 small whole-layer error accuracy")},
		{"table7", "CIFAR-small storage overhead", "cifar-small", storageTable("Table VII: CIFAR-10 small storage overhead")},
		{"fig9", "CIFAR-large RBER sweep", "cifar-large", rberFig("Figure 9: CIFAR-10 large normalized accuracy vs RBER")},
		{"fig10", "CIFAR-large whole-weight errors", "cifar-large", wwFig("Figure 10: CIFAR-10 large whole-weight errors")},
		{"table8", "CIFAR-large whole-layer recovery", "cifar-large", layerTable("Table VIII: CIFAR-10 large whole-layer error accuracy")},
		{"table9", "CIFAR-large storage overhead", "cifar-large", storageTable("Table IX: CIFAR-10 large storage overhead")},
		{"table10", "prediction and identification time", "mnist", func(env *bench.Env, _ *config) error {
			res, err := bench.Timing(env)
			if err != nil {
				return err
			}
			bench.RenderTiming(os.Stdout, "Table X: MILR prediction and identification time (MNIST)", res)
			return nil
		}},
		{"fig11", "recovery time vs errors", "mnist", func(env *bench.Env, _ *config) error {
			pts, err := bench.RecoveryTimeCurve(env, []int{16, 64, 256, 1024, 4096})
			if err != nil {
				return err
			}
			bench.RenderRecoveryCurve(os.Stdout, "Figure 11: recovery time vs number of errors (MNIST)", pts)
			return nil
		}},
		{"psec", "ciphertext-space bit flips (AES-XTS) — the PSEC scenario", "mnist", func(env *bench.Env, _ *config) error {
			res, err := bench.CiphertextSweep(env, bench.PaperRBERRates[:7],
				[]bench.Scheme{bench.NoRecovery, bench.ECCOnly, bench.MILROnly})
			if err != nil {
				return err
			}
			bench.RenderSweep(os.Stdout, "PSEC: ciphertext RBER (each flip garbles a 16-byte plaintext block)", res)
			return nil
		}},
		{"fig12", "availability vs minimum accuracy", "mnist", func(env *bench.Env, _ *config) error {
			pts, err := bench.AvailabilityCurve(env, 60)
			if err != nil {
				return err
			}
			bench.RenderAvailability(os.Stdout, "Figure 12: availability vs minimum accuracy (MNIST)", pts)
			return nil
		}},
	}
}
