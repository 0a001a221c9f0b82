package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"milr"
	"milr/internal/gateway"
	"milr/internal/nn"
	"milr/internal/obs"
	"milr/internal/prng"
)

// The fleet is configured exactly as cmd/milr-gateway configures it by
// default; a benchmark that tuned these would measure another system.
const (
	fleetBatch    = 8
	fleetWindow   = milr.DefaultMaxBatchDelay // 2 ms
	fleetQueueCap = 64
	fleetDeadline = 2 * time.Second
	fleetWorkers  = -1 // all cores
	maxDeadline   = 30 * time.Second
	weightSeed    = 42

	inputsPerModel = 64 // generated from the workload seed (heal workloads: the verifyAnswers they send)
	closedClients  = 16
	// Open-loop arrivals per second, Poisson. About a fifth of what the
	// protected MNIST fleet sustains on a quiet box, so that the queue
	// stays stable — and no request is refused — when the host runs at
	// half speed for a while.
	openRate      = 60.0
	scrubEvery    = 250 * time.Millisecond
	sloLimit      = 100 * time.Millisecond
	verifyAnswers = 16 // answers checked through the gateway after each heal
	// A heal workload is incorrect when fewer than this share of its
	// post-heal answers equal the oracle's: healing does not work. Healthy
	// runs sit above 0.94; a model left unhealed answers at chance.
	healFloor = 0.75
	// setup_s is the median of at least setupMin full set-ups; cheap
	// set-ups (the tiny net's takes milliseconds) repeat until a fifth of
	// the window (at most setupBudget) is spent or setupMax is reached,
	// so the median is steady.
	setupMin    = 3
	setupMax    = 101
	setupBudget = 2 * time.Second
)

// kind says how a workload loads the system.
type kind int

const (
	closedLoop kind = iota // clients that each wait for their reply
	openLoop               // a seeded arrival schedule, with a periodic clean scrub
	healCycle              // no traffic: inject, scrub, verify, restore
)

// workload is one named scenario. Each has one model behind its own
// fleet, so the process's memory and counters belong to it alone.
type workload struct {
	name      string
	kind      kind
	network   string // zoo network served
	protected bool
	// The fault one heal cycle injects (healCycle workloads only):
	// flipBits distinct random bit flips across the model's parameters,
	// or every parameter of the largest dense layer overwritten.
	flipBits       int
	overwriteDense bool
}

// healClasses are the fault classes the engine probes time on every
// traced pass (core.recover_ms.<class> and its companions). The last
// two are workloads as well: the one whose heal is core's own time and
// the one whose heal is linalg's and crc2d's. Every workload costs 22
// runs of the driver's time, and that time is better spent on longer
// windows than on four heal workloads.
var healClasses = []workload{
	{name: "heal-bitflip64", kind: healCycle, network: "mnist", protected: true, flipBits: 64},
	{name: "heal-bitflip1024", kind: healCycle, network: "mnist", protected: true, flipBits: 1024},
	{name: "heal-dense-layer", kind: healCycle, network: "mnist", protected: true, overwriteDense: true},
	{name: "heal-conv-bitflip1024", kind: healCycle, network: "cifar-small", protected: true, flipBits: 1024},
}

var workloads = []workload{
	{name: "predict-mnist-closed", kind: closedLoop, network: "mnist"},
	{name: "predict-tiny-closed", kind: closedLoop, network: "tiny"},
	{name: "predict-guarded-open", kind: openLoop, network: "mnist", protected: true},
	healClasses[2],
	healClasses[3],
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}

var builders = map[string]func() (*milr.Model, error){
	"tiny":        milr.NewTinyNet,
	"mnist":       milr.NewMNISTNet,
	"cifar-small": milr.NewCIFARSmallNet,
}

// largestDense returns the model's largest dense layer: MNIST's
// 6400×256, the layer whose whole-layer recovery is core's banded
// back-substitution.
func largestDense(m *milr.Model) milr.Parameterized {
	var best *nn.Dense
	for _, l := range m.Layers() {
		if d, ok := l.(*nn.Dense); ok && (best == nil || d.ParamCount() > best.ParamCount()) {
			best = d
		}
	}
	return best
}

// env is one fully set-up system under test: runtime, fleet, the two
// gateways over it (plain, and traced through the timing backend), the
// generated inputs as request bodies, and the oracle's answers.
type env struct {
	wl     workload
	rt     *milr.Runtime
	fleet  *milr.Fleet
	model  *milr.Model
	prot   *milr.Protector      // nil on unprotected workloads
	clean  map[int]*milr.Tensor // clean weights, restored after every heal cycle
	plain  http.Handler         // gateway.New(fleet), as the daemon builds it
	traced http.Handler         // the same fleet behind the timing backend, tracer on
	tracer *obs.Tracer          // nil unless the pass is traced
	path   string               // predict route of the model
	bodies [][]byte             // one single-sample predict body per input
	verify []byte               // one batch body: the first verifyAnswers inputs
	oracle []int                // clean-weights answers, one per input
	rec    *recorder            // the benchmark's own span list (nil when untraced)
	epoch  time.Time            // samples carry times as offsets from here
	// skipScrub makes heal cycles skip ScrubOnce. Tests set it to show
	// that the oracle check is live.
	skipScrub bool
}

// newRuntime builds the runtime cmd/milr-gateway builds by default.
func newRuntime() *milr.Runtime {
	return milr.NewRuntime(
		milr.WithSeed(weightSeed),
		milr.WithWorkers(fleetWorkers),
		milr.WithBatchSize(fleetBatch),
		milr.WithMaxBatchDelay(fleetWindow),
		milr.WithQueueCap(fleetQueueCap),
		milr.WithDefaultDeadline(fleetDeadline),
	)
}

// newEnv sets the whole system up: weights, protection, registration,
// gateways, request bodies and the oracle. Its wall time is setup_s.
// traceCap > 0 switches the program's tracer on with that ring size.
func newEnv(ctx context.Context, wl workload, seed uint64, traceCap int) (*env, error) {
	build, ok := builders[wl.network]
	if !ok {
		return nil, fmt.Errorf("workload %s: unknown network %q", wl.name, wl.network)
	}
	e := &env{wl: wl, rt: newRuntime(), path: "/v1/models/" + wl.network + "/predict", epoch: time.Now()}
	var err error
	if e.model, err = build(); err != nil {
		return nil, fmt.Errorf("build %s: %w", wl.network, err)
	}
	e.model.InitWeights(weightSeed)
	e.fleet = milr.NewFleet(e.rt)
	if wl.protected {
		if e.prot, err = e.rt.Protect(ctx, e.model); err != nil {
			e.close()
			return nil, fmt.Errorf("protect %s: %w", wl.network, err)
		}
		e.prot.Sync(func() { e.clean = e.model.Snapshot() })
		err = e.fleet.RegisterProtected(wl.network, e.prot)
	} else {
		err = e.fleet.Register(wl.network, e.model)
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("register %s: %w", wl.network, err)
	}
	gwCfg := gateway.Config{MaxDeadline: maxDeadline}
	e.plain = gateway.New(e.fleet, gwCfg)
	if traceCap > 0 {
		e.rec = &recorder{}
		e.tracer = obs.New(obs.Config{Capacity: traceCap, Seed: seed})
		gwCfg.Tracer = e.tracer
		e.traced = gateway.New(timedBackend{e.fleet}, gwCfg)
	}

	// Inputs come from the workload seed; the program only ever sees
	// them as JSON bodies, like any client's.
	st := prng.New(seed ^ 0x696e70757473) // "inputs"
	shape := e.model.InShape()
	n := inputsPerModel
	if wl.kind == healCycle {
		n = verifyAnswers
	}
	inputs := make([]*milr.Tensor, n)
	e.bodies = make([][]byte, n)
	flat := make([][]float64, n)
	for i := range inputs {
		inputs[i] = st.Tensor(shape...)
		flat[i] = widen(inputs[i].Data())
		if e.bodies[i], err = json.Marshal(map[string][]float64{"input": flat[i]}); err != nil {
			e.close()
			return nil, fmt.Errorf("encode input %d: %w", i, err)
		}
	}
	if e.verify, err = json.Marshal(map[string][][]float64{"inputs": flat[:verifyAnswers]}); err != nil {
		e.close()
		return nil, fmt.Errorf("encode verify batch: %w", err)
	}
	if e.oracle, err = oracleAnswers(build, inputs); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// oracleAnswers computes the clean-weights answers on a model instance
// of its own, through the direct batched forward path, so that the
// served model being corrupted, healed or swapped cannot move them.
func oracleAnswers(build func() (*milr.Model, error), inputs []*milr.Tensor) ([]int, error) {
	m, err := build()
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	m.InitWeights(weightSeed)
	m.SetWorkers(fleetWorkers)
	out := make([]int, 0, len(inputs))
	for lo := 0; lo < len(inputs); lo += fleetBatch {
		classes, err := m.PredictBatch(inputs[lo:min(lo+fleetBatch, len(inputs))])
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		out = append(out, classes...)
	}
	return out, nil
}

// widen converts a sample to the float64s its JSON body carries; the
// gateway narrows them back to the same float32s, so the oracle and
// the served model see identical inputs.
func widen(in []float32) []float64 {
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = float64(v)
	}
	return out
}

func (e *env) close() {
	if e.fleet != nil {
		// Close only fails when called twice with work in flight; there
		// is nothing to report to and the process is about to exit.
		_ = e.fleet.Close()
	}
}

// report is everything one process measured: what it prints for people
// and, on the traced pass, what it writes to -out.
type report struct {
	workload string
	lines    []string   // sample counts and phase summaries
	table    []tableRow // every metric by name and unit
	spans    []span     // the benchmark's own spans (traced pass)
	program  []obs.SpanRecord
	origin   time.Time
}

type tableRow struct {
	name  string
	value float64
	unit  string
	n     int // sample count behind a timing, 0 where it does not apply
}

func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.table = append(r.table, tableRow{name, value, unit, n})
}

func (r *report) print(w *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprint(w, r.render())
}

// render formats the metric table, sorted by name.
func (r *report) render() string {
	rows := append([]tableRow(nil), r.table...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var b strings.Builder
	fmt.Fprintf(&b, "%-42s %16s %-8s %s\n", "metric ("+r.workload+")", "value", "unit", "samples")
	for _, row := range rows {
		n := "-"
		if row.n > 0 {
			n = strconv.Itoa(row.n)
		}
		fmt.Fprintf(&b, "%-42s %16.4f %-8s %s\n", row.name, row.value, row.unit, n)
	}
	return b.String()
}

// runWorkload sets the system up several times, runs the warm-up
// and the measured window(s), and returns the result line plus the
// report. Untraced it yields the end-to-end metrics; traced, the
// per-layer metrics.
func runWorkload(wl workload, cfg config) (result, *report, error) {
	ctx := context.Background()
	rep := &report{workload: wl.name, origin: time.Now()}
	warm, window := phaseLengths(cfg.seconds)
	traceCap := 0
	if cfg.trace {
		traceCap = ringCapacity(window)
	}

	var e *env
	var setups []float64
	var spent time.Duration
	budget := min(setupBudget, window/5)
	for len(setups) < setupMin || (len(setups) < setupMax && spent < budget) {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = newEnv(ctx, wl, cfg.seed, traceCap); err != nil {
			return result{}, nil, err
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer e.close()
	rep.logf("set-up: %d runs, median %.4f s (each: weights, protect, register, gateways, bodies, oracle)", len(setups), median(setups))

	warmRes, err := e.runPhase(ctx, e.plain, nil, warm, cfg.seed^0x7761726d) // "warm"
	if err != nil {
		return result{}, nil, fmt.Errorf("warm-up: %w", err)
	}
	rep.logf("warm-up:   %s", warmRes.summary())
	warmRes.release()

	if !cfg.trace {
		res, err := e.runPhase(ctx, e.plain, nil, window, cfg.seed)
		if err != nil {
			return result{}, nil, fmt.Errorf("measured window: %w", err)
		}
		defer res.release()
		rep.logf("measured:  %s", res.summary())
		return endToEnd(rep, res, setups), rep, nil
	}

	// Traced pass: a short untraced reference window gives the rate the
	// traced window's is compared with (the tracing overhead); the rest
	// of -seconds is measured with every span on.
	refLen := window * 3 / 10
	ref, err := e.runPhase(ctx, e.plain, nil, refLen, cfg.seed^0x726566) // "ref"
	if err != nil {
		return result{}, nil, fmt.Errorf("reference window: %w", err)
	}
	defer ref.release()
	rep.logf("reference: %s", ref.summary())
	before := e.fleet.Stats()
	res, err := e.runPhase(ctx, e.traced, e.rec, window-refLen, cfg.seed)
	if err != nil {
		return result{}, nil, fmt.Errorf("traced window: %w", err)
	}
	defer res.release()
	after := e.fleet.Stats()
	rep.logf("traced:    %s", res.summary())
	rep.spans = e.rec.all()
	rep.program = e.tracer.Last(traceCap)
	if done := e.tracer.Completed(); done > uint64(len(rep.program)) {
		rep.logf("tracer ring kept the last %d of %d spans; the per-layer medians are over those", len(rep.program), done)
	}
	lm := perLayer(rep, res, ref, before, after, wl.network)
	if err := runProbes(ctx, cfg.seed, cfg.seconds, e.rec, lm); err != nil {
		return result{}, nil, fmt.Errorf("layer probes: %w", err)
	}
	rep.spans = e.rec.all() // now with the probe spans
	return lm.result(res), rep, nil
}

// endToEnd turns the measured window into the untraced result line.
func endToEnd(rep *report, res *phaseResult, setups []float64) result {
	lat, st := res.latencies(), res.steady()
	if res.kind == healCycle {
		rep.logf("cycles/s, per cycle:%s", series(st.rates, "%.2f"))
		rep.logf("heal ms, per cycle: %s", series(st.p50s, "%.0f"))
		rep.logf("answers equal to the oracle's of %d, per cycle: %v", verifyAnswers, res.cycleAgree)
	} else {
		rep.logf("rate 1/s, per slice:%s", series(st.rates, "%.0f"))
		rep.logf("p50 ms, per slice:  %s", series(st.p50s, "%.2f"))
	}
	ms := &metricSet{rep: rep, out: map[string]metric{}}
	ms.put("setup_s", median(setups), "s", len(setups))
	ms.put("throughput_ops_s", st.throughput, "1/s", st.samples)
	ms.put("latency_p50_ms", st.p50, "ms", st.samples)
	ms.put("alloc_kb_per_op", float64(res.allocBytes)/1024/float64(max(res.ops(), 1)), "KB", res.ops())
	ms.put("rss_peak_mb", peakRSSMB(), "MB", 0)
	ms.put("ok_share", res.okShare(), "share", res.checked())
	// Printed, not graded: see README.md on why the tail is not.
	rep.add("loadgen.latency_p95_ms", st.p95, "ms", st.samples)
	rep.add("loadgen.latency_p99_ms", quantile(lat, 0.99), "ms", len(lat))
	rep.add("loadgen.latency_max_ms", quantile(lat, 1), "ms", len(lat))
	rep.add("loadgen.slo_miss_share", res.sloMissShare(), "share", res.ops())
	if res.kind == healCycle {
		rep.add("core.agree_share_all_cycles", ratio(float64(res.agree), float64(res.answers)), "share", res.answers)
	}
	if sc := res.cleanScrubs(); len(sc) > 0 {
		rep.add("core.scrub_clean_ms", quantile(sc, 0.5), "ms", len(sc))
	}
	return ms.result(res)
}

// peakRSSMB reads the process's peak resident set (VmHWM), which is
// why each workload runs in a process of its own.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
