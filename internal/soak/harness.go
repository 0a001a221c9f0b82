package soak

import (
	"context"
	"fmt"
	"time"

	"milr/internal/availability"
	"milr/internal/bench"
	"milr/internal/core"
	"milr/internal/faults"
	"milr/internal/fleet"
	"milr/internal/obs"
	"milr/internal/tensor"
)

// Target is one fleet member under soak: a protected model, the inputs
// the swarm cycles through, and the clean model's answer for each (the
// correctness oracle — fleet answers are bit-identical to direct
// Model.Predict calls, so any divergence is fault-induced).
type Target struct {
	// Name is the model's fleet routing name.
	Name string
	// Protector owns the model; its Sync gate is both the fleet batch
	// gate and the injection gate, and its SelfHealContext is the scrub.
	Protector *core.Protector
	// Inputs are cycled round-robin by the arrival swarm.
	Inputs []*tensor.Tensor
	// Want holds the clean model's class per input (same indexing).
	Want []int
}

// Config configures one soak run.
type Config struct {
	// Seed drives the entire campaign: timeline, arrivals, per-event
	// injector streams, calibration faults. Same (Seed, Scenario,
	// Targets) → identical transcript.
	Seed uint64
	// Workers is the fleet's shared batch-execution budget; BatchSize
	// and MaxDelay its per-model coalescing (fleet.Config semantics).
	Workers   int
	BatchSize int
	// MaxDelay bounds partial-batch coalescing waits; keep it 0 for
	// fastest virtual-clock turnaround.
	MaxDelay time.Duration
	// Overlap runs due guard scrubs concurrently with the window's
	// client traffic instead of synchronously at the window boundary.
	// That is the realistic serving interleaving — heals contend with
	// traffic, tail latency shows it — but it waives the byte-identical
	// replay contract: which requests land before vs after the heal is
	// then a scheduler race. The race soak tests run with Overlap on;
	// replay tests and the CI smoke run with it off.
	Overlap bool
	// MaxWall, when positive, truncates the run at the first window
	// boundary past the budget (Report.Truncated).
	MaxWall time.Duration
}

// Run executes the scenario against the targets and returns the full
// report. The fleet is built fresh for the run (unbounded queues, no
// default deadline — the deterministic admission regime), every
// injection event is applied inside its target Protector's Sync gate,
// and scrubs go through Fleet.ScrubOnce so the guard schedule is part
// of the replayable script rather than wall-clock timing.
func Run(ctx context.Context, cfg Config, sc Scenario, targets []*Target) (*Report, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("soak: no targets")
	}
	names := make([]string, len(targets))
	loadTargets := make([]bench.OpenLoopTarget, len(targets))
	index := map[string]int{}
	for i, tg := range targets {
		if tg == nil || tg.Protector == nil {
			return nil, fmt.Errorf("soak: target %d is nil or unprotected", i)
		}
		if len(tg.Inputs) == 0 || len(tg.Want) != len(tg.Inputs) {
			return nil, fmt.Errorf("soak: target %q needs inputs with matching want answers (%d inputs, %d want)",
				tg.Name, len(tg.Inputs), len(tg.Want))
		}
		if _, dup := index[tg.Name]; dup {
			return nil, fmt.Errorf("soak: duplicate target %q", tg.Name)
		}
		index[tg.Name] = i
		names[i] = tg.Name
		loadTargets[i] = bench.OpenLoopTarget{Name: tg.Name, Inputs: tg.Inputs, Want: tg.Want}
	}
	events, arrivals, err := sc.Timeline(cfg.Seed, names)
	if err != nil {
		return nil, err
	}
	td, tr, err := calibrate(ctx, cfg.Seed, targets)
	if err != nil {
		return nil, fmt.Errorf("soak: calibration: %w", err)
	}

	fl := fleet.New(fleet.Config{Workers: cfg.Workers, BatchSize: cfg.BatchSize, MaxDelay: cfg.MaxDelay})
	defer fl.Close()
	for _, tg := range targets {
		pr := tg.Protector
		mc := fleet.ModelConfig{
			Gate: pr.Sync,
			Scrub: func(ctx context.Context) (fleet.ScrubResult, error) {
				det, rec, err := pr.SelfHealContext(ctx)
				var res fleet.ScrubResult
				res.ErrorsDetected, res.Recovered = core.HealOutcome(det, rec, err)
				return res, err
			},
		}
		if err := fl.Register(tg.Name, pr.Model(), mc); err != nil {
			return nil, fmt.Errorf("soak: register %q: %w", tg.Name, err)
		}
	}

	// Index events by window for the loop.
	byWindow := make([][]int, sc.TotalWindows())
	for i, ev := range events {
		byWindow[ev.Window] = append(byWindow[ev.Window], i)
	}
	phaseOf := make([]string, sc.TotalWindows())
	w := 0
	for _, ph := range sc.Phases {
		for pw := 0; pw < ph.Windows; pw, w = pw+1, w+1 {
			phaseOf[w] = ph.Name
		}
	}

	rep := &Report{
		Scenario:   sc.Name,
		Seed:       cfg.Seed,
		Models:     names,
		GuardEvery: sc.GuardEvery,
		Overlap:    cfg.Overlap,
		PerModel:   map[string]ModelSummary{},
	}
	perModel := make([]ModelSummary, len(targets))
	arrivalCursor := make([]int, len(targets)) // input round-robin per model
	applied := 0
	start := time.Now()
	var downtime time.Duration

	for w := 0; w < sc.TotalWindows(); w++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cfg.MaxWall > 0 && time.Since(start) > cfg.MaxWall {
			rep.Truncated = true
			break
		}
		winStart := time.Now()
		wm := WindowMetrics{Window: w, Phase: phaseOf[w]}

		// Window span: when the caller threaded an obs.Tracer through
		// ctx (the -trace flag of cmd/milr-soak), every injection, scrub
		// and request of this window nests under one soak.window span —
		// which ties the report's per-window Td/Tr story directly to the
		// observed span timeline. With no tracer all of this is no-ops.
		wctx, wspan := obs.Start(ctx, "soak.window")
		wspan.SetInt("window", w)
		wspan.SetAttr("phase", phaseOf[w])

		// 1. Injection: this window's events, each under its target's
		// Sync gate with its own derived injector stream.
		for _, ei := range byWindow[w] {
			ev := &events[ei]
			tg := targets[index[ev.Model]]
			applyEvent(wctx, ev, tg, sc)
			applied = ei + 1
			wm.Injections++
			wm.Corrupted += ev.Corrupted
			perModel[index[ev.Model]].Injections++
			perModel[index[ev.Model]].Corrupted += ev.Corrupted
		}

		// 2. Guard cadence: one round-robin scrub via the fleet's shared
		// cursor — synchronously at the boundary (deterministic), or
		// overlapped with the window's traffic (Overlap).
		type scrubOutcome struct {
			res fleet.ScrubResult
			dur time.Duration
			err error
		}
		var scrubCh chan scrubOutcome
		if sc.GuardEvery > 0 && (w+1)%sc.GuardEvery == 0 {
			scrubCh = make(chan scrubOutcome, 1)
			doScrub := func() {
				s0 := time.Now()
				_, res, err := fl.ScrubOnce(wctx)
				scrubCh <- scrubOutcome{res: res, dur: time.Since(s0), err: err}
			}
			if cfg.Overlap {
				go doScrub()
			} else {
				doScrub()
			}
		}

		// 3. Traffic: the window's Poisson arrivals, all due at once (the
		// schedule — who arrives in which window, with which input — is
		// precomputed; only the in-window interleaving is left to the
		// scheduler, and answers are interleaving-invariant). Queue-cap
		// rejections and expiries are counted; any other error aborts
		// the run.
		reqs := make([]bench.Arrival, 0, 16)
		for mi := range targets {
			for k := 0; k < arrivals[w][mi]; k++ {
				reqs = append(reqs, bench.Arrival{Target: mi, Input: arrivalCursor[mi] % len(targets[mi].Inputs)})
				arrivalCursor[mi]++
			}
		}
		load, err := bench.RunOpenLoop(wctx, fl, loadTargets, reqs)
		if err != nil {
			return nil, fmt.Errorf("soak: window %d: %w", w, err)
		}

		// 4. Join the overlapped scrub (if any) and account for it.
		if scrubCh != nil {
			out := <-scrubCh
			if out.err != nil && ctx.Err() != nil {
				return nil, out.err
			}
			downtime += out.dur
			wm.Scrubs++
			if out.res.ErrorsDetected {
				wm.Heals++
			}
		}

		for mi, c := range load.PerTarget {
			wm.Issued += c.Issued
			wm.Correct += c.Correct
			wm.Wrong += c.Wrong
			wm.Rejected += c.Rejected
			wm.Expired += c.Expired
			perModel[mi].Issued += c.Issued
			perModel[mi].Correct += c.Correct
			perModel[mi].Wrong += c.Wrong
		}
		st := fl.Stats()
		for _, name := range names {
			if p99 := st.Models[name].P99; p99 > wm.P99 {
				wm.P99 = p99
			}
		}
		wm.Elapsed = time.Since(winStart)
		wspan.SetInt("issued", wm.Issued)
		wspan.SetInt("injections", wm.Injections)
		wspan.SetInt("scrubs", wm.Scrubs)
		wspan.End()
		rep.PerWindow = append(rep.PerWindow, wm)
		rep.Windows++
	}
	rep.Elapsed = time.Since(start)
	rep.Downtime = downtime
	rep.Events = events[:applied]

	st := fl.Stats()
	for mi, name := range names {
		ms := st.Models[name]
		perModel[mi].Scrubs = ms.Scrubs
		// Heals: every cycle that ran a recovery, as the pinned transcript counts.
		perModel[mi].Heals = ms.Heals + ms.PartialHeals
		perModel[mi].ScrubFailures = ms.ScrubFailures
		perModel[mi].P50 = ms.P50
		perModel[mi].P99 = ms.P99
		rep.PerModel[name] = perModel[mi]
		rep.Scrubs += ms.Scrubs
		rep.Heals += perModel[mi].Heals
		rep.ScrubFailures += ms.ScrubFailures
	}
	for _, wm := range rep.PerWindow {
		rep.Issued += wm.Issued
		rep.Correct += wm.Correct
		rep.Wrong += wm.Wrong
		rep.Rejected += wm.Rejected
		rep.Expired += wm.Expired
		rep.Injections += wm.Injections
		rep.CorruptedWeights += wm.Corrupted
	}
	if rep.Issued > 0 {
		rep.Accuracy = float64(rep.Correct) / float64(rep.Issued)
	}
	rep.Fit = fitEq6(rep, td, tr)
	return rep, nil
}

// applyEvent runs one injection event inside the target's Sync gate and
// records what it corrupted. The context is consulted only for tracing
// (the soak.inject span); injections are never cancelled mid-event.
func applyEvent(ctx context.Context, ev *Event, tg *Target, sc Scenario) {
	_, span := obs.Start(ctx, "soak.inject")
	span.SetAttr("model", ev.Model)
	span.SetAttr("kind", ev.Kind.String())
	defer func() {
		span.SetInt("corrupted", ev.Corrupted)
		span.End()
	}()
	inj := faults.New(ev.Seed)
	m := tg.Protector.Model()
	ph := phaseByName(sc, ev.Phase)
	tg.Protector.Sync(func() {
		switch ev.Kind {
		case InjectBitFlips:
			ev.Corrupted = inj.BitFlips(m, ph.Rate)
		case InjectBurst:
			ev.Layers, ev.Corrupted = inj.BurstAcross(m, ph.BurstLen)
		case InjectStuckAt:
			ev.Corrupted = inj.StuckAt(m, ph.StuckCells, ph.StuckValue)
		case InjectOverwrite:
			ev.Corrupted = inj.OverwriteModel(m)
		}
	})
}

// phaseByName resolves an event's phase parameters.
func phaseByName(sc Scenario, name string) Phase {
	for _, ph := range sc.Phases {
		if ph.Name == name {
			return ph
		}
	}
	return Phase{}
}

// calibrate measures the Eq. 6 cost inputs on the idle targets: Td as
// the mean clean self-heal (detection-only) duration, Tr as the mean
// incremental cost of a heal over a representative fault (64 flipped
// bits) beyond the detection pass. Models are snapshot-restored and the
// CRC state reset, so calibration leaves no trace in the run.
func calibrate(ctx context.Context, seed uint64, targets []*Target) (td, tr float64, err error) {
	// A single timing sample on a millisecond-scale heal is at the mercy
	// of scheduler noise; average a few reps per target.
	const reps = 3
	for i, tg := range targets {
		pr := tg.Protector
		m := pr.Model()
		snap := m.Snapshot()
		inj := faults.New(subSeed(seed, uint64(i), 0xCA1))
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			if _, _, err := pr.SelfHealContext(ctx); err != nil {
				return 0, 0, fmt.Errorf("clean pass on %q: %w", tg.Name, err)
			}
			tdi := time.Since(t0).Seconds()
			pr.Sync(func() { inj.FlipExactBits(m, 64) })
			t0 = time.Now()
			if _, _, err := pr.SelfHealContext(ctx); err != nil {
				return 0, 0, fmt.Errorf("heal pass on %q: %w", tg.Name, err)
			}
			tri := time.Since(t0).Seconds() - tdi
			if tri < 0 {
				tri = 0
			}
			var restoreErr error
			pr.Sync(func() { restoreErr = m.Restore(snap) })
			if restoreErr != nil {
				return 0, 0, fmt.Errorf("restore %q: %w", tg.Name, restoreErr)
			}
			pr.ResetCRC()
			td += tdi
			tr += tri
		}
	}
	n := float64(len(targets) * reps)
	return td / n, tr / n, nil
}

// fitEq6 evaluates the paper's availability model at the measured error
// rate and compares it with the availability the run delivered.
// Measured availability treats summed scrub time as the only downtime —
// under Sync, a scrubbing model serves nothing, which is exactly Eq.
// 6's downtime term. The Tbe fed to the model is measured uptime per
// corrupting injection, and I is the measured scrub-per-error ratio.
func fitEq6(rep *Report, td, tr float64) Eq6 {
	fit := Eq6{TdSeconds: td, TrSeconds: tr}
	errorEvents := 0
	for _, ev := range rep.Events {
		if ev.Corrupted > 0 {
			errorEvents++
		}
	}
	fit.ErrorEvents = errorEvents
	minAcc := 1.0
	sawTraffic := false
	for _, wm := range rep.PerWindow {
		if wm.Issued == 0 {
			continue
		}
		sawTraffic = true
		if acc := float64(wm.Correct) / float64(wm.Issued); acc < minAcc {
			minAcc = acc
		}
	}
	if sawTraffic {
		fit.MeasuredMinAccuracy = minAcc
	}
	if errorEvents == 0 || rep.Scrubs == 0 || rep.Elapsed <= 0 || td <= 0 {
		return fit
	}
	uptime := (rep.Elapsed - rep.Downtime).Seconds()
	if uptime <= 0 {
		return fit
	}
	fit.Valid = true
	fit.TbeSeconds = uptime / float64(errorEvents)
	fit.DetectionsPerError = float64(rep.Scrubs) / float64(errorEvents)
	p := availability.ParamsForInterval(fit.TbeSeconds, td, tr, fit.DetectionsPerError)
	fit.Predicted = p.Availability()
	fit.Measured = 1 - rep.Downtime.Seconds()/rep.Elapsed.Seconds()
	fit.Delta = fit.Measured - fit.Predicted
	curve, err := availability.Curve(p, 64)
	if err != nil {
		fit.CurveNote = err.Error()
		return fit
	}
	acc, err := availability.AccuracyAt(curve, fit.Measured)
	if err != nil {
		fit.CurveNote = err.Error()
		return fit
	}
	fit.PredictedMinAccuracy = acc
	return fit
}
