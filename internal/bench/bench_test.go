package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func tinyEnv(t *testing.T) *Env {
	t.Helper()
	cfg := Config{Runs: 2, TestSamples: 30, TrainSamples: 80, Epochs: 3, Seed: 9}
	env, err := BuildEnv("tiny", cfg, "")
	if err != nil {
		t.Fatalf("BuildEnv: %v", err)
	}
	return env
}

func TestBuildEnvTrainsAboveChance(t *testing.T) {
	env := tinyEnv(t)
	// 4 classes: chance is 0.25. The synthetic set is easy; expect well
	// above chance.
	if env.BaseAcc < 0.5 {
		t.Errorf("baseline accuracy %.3f too low", env.BaseAcc)
	}
	acc, err := env.NormalizedAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1.0 {
		t.Errorf("clean normalized accuracy %.3f, want 1.0", acc)
	}
}

func TestEnvResetRestoresAccuracy(t *testing.T) {
	env := tinyEnv(t)
	res, err := RBERSweep(env, []float64{5e-3}, []Scheme{NoRecovery})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("got %d points", len(res.Points))
	}
	acc, err := env.NormalizedAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1.0 {
		t.Errorf("after sweep, normalized accuracy %.3f, want 1.0 (reset failed)", acc)
	}
}

func TestSweepSchemesOrdering(t *testing.T) {
	env := tinyEnv(t)
	// At a damaging rate, MILR's median must beat no-recovery's.
	res, err := RBERSweep(env, []float64{2e-3}, []Scheme{NoRecovery, MILROnly, ECCPlusMILR})
	if err != nil {
		t.Fatal(err)
	}
	var none, milr, both BoxStats
	for _, p := range res.Points {
		switch p.Scheme {
		case NoRecovery:
			none = p.Stats
		case MILROnly:
			milr = p.Stats
		case ECCPlusMILR:
			both = p.Stats
		}
	}
	if milr.Median < none.Median {
		t.Errorf("MILR median %.3f below no-recovery %.3f", milr.Median, none.Median)
	}
	if both.Median < 0.95 {
		t.Errorf("ECC+MILR median %.3f, want ≈1", both.Median)
	}
}

func TestWholeWeightSweepECCHelpless(t *testing.T) {
	env := tinyEnv(t)
	res, err := WholeWeightSweep(env, []float64{5e-3}, []Scheme{ECCOnly, MILROnly})
	if err != nil {
		t.Fatal(err)
	}
	var eccS, milrS BoxStats
	for _, p := range res.Points {
		if p.Scheme == ECCOnly {
			eccS = p.Stats
		} else {
			milrS = p.Stats
		}
	}
	// Whole-weight (32-bit) errors: ECC cannot repair them; MILR can.
	if milrS.Median < eccS.Median {
		t.Errorf("MILR median %.3f below ECC %.3f on whole-weight errors", milrS.Median, eccS.Median)
	}
	if milrS.Median < 0.95 {
		t.Errorf("MILR median %.3f on whole-weight errors, want ≈1", milrS.Median)
	}
}

func TestWholeLayerTableShape(t *testing.T) {
	env := tinyEnv(t)
	rows, err := WholeLayerTable(env)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny net: 2 conv + 2 dense + 4 bias = 8 parameterized layers.
	if len(rows) != 8 {
		t.Fatalf("got %d rows: %+v", len(rows), rows)
	}
	for _, r := range rows {
		if r.Partial {
			continue
		}
		if r.MILRAcc < 0.99 {
			t.Errorf("layer %s: MILR accuracy %.3f, want ≈1", r.Label, r.MILRAcc)
		}
	}
	// Labels follow the paper's convention.
	if rows[0].Label != "Conv." || rows[1].Label != "Conv. Bias" {
		t.Errorf("unexpected labels %q, %q", rows[0].Label, rows[1].Label)
	}
}

func TestStorageAndTimingSmoke(t *testing.T) {
	env := tinyEnv(t)
	rep := env.Protector.Storage()
	if rep.MILRBytes() <= 0 || rep.BackupBytes <= 0 {
		t.Error("degenerate storage report")
	}
	timing, err := Timing(env)
	if err != nil {
		t.Fatal(err)
	}
	if timing.SinglePrediction <= 0 || timing.Identification <= 0 {
		t.Errorf("degenerate timing: %+v", timing)
	}
}

func TestRecoveryTimeCurveMonotoneish(t *testing.T) {
	env := tinyEnv(t)
	pts, err := RecoveryTimeCurve(env, []int{4, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.Elapsed <= 0 {
			t.Errorf("non-positive recovery time for %d errors", p.Errors)
		}
	}
}

func TestAvailabilityCurveFromEnv(t *testing.T) {
	env := tinyEnv(t)
	pts, err := AvailabilityCurve(env, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 20 {
		t.Fatalf("got %d points", len(pts))
	}
}

func TestAvailabilityCurveWorkersRestoresConfig(t *testing.T) {
	env := tinyEnv(t)
	pts, err := AvailabilityCurveWorkers(env, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 20 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.Availability <= 0 || p.Availability > 1 || p.MinAccuracy < 0 || p.MinAccuracy > 1 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
	if env.Config.Workers != 0 {
		t.Errorf("worker configuration not restored: %d, want 0", env.Config.Workers)
	}
}

func TestCiphertextSweepRuns(t *testing.T) {
	env := tinyEnv(t)
	res, err := CiphertextSweep(env, []float64{1e-4}, []Scheme{NoRecovery, MILROnly})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points", len(res.Points))
	}
}

func TestWeightCacheRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	cfg := Config{Runs: 1, TestSamples: 20, TrainSamples: 60, Epochs: 2, Seed: 31}
	env1, err := BuildEnv("tiny", cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Second build must hit the cache and produce identical weights.
	env2, err := BuildEnv("tiny", cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := env1.Model.Snapshot(), env2.Model.Snapshot()
	for k := range s1 {
		if !s1[k].Equalish(s2[k], 0) {
			t.Fatalf("cached weights differ at layer %d", k)
		}
	}
	if env1.BaseAcc != env2.BaseAcc {
		t.Errorf("cached baseline %v != %v", env2.BaseAcc, env1.BaseAcc)
	}
	if _, err := os.Stat(filepath.Join(dir, cacheKey("tiny", cfg))); err != nil {
		t.Errorf("cache file missing: %v", err)
	}
}

func TestComputeBoxStats(t *testing.T) {
	s := ComputeBoxStats([]float64{3, 1, 2, 5, 4})
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.N != 5 {
		t.Errorf("stats %+v", s)
	}
	if s.Mean != 3 {
		t.Errorf("mean %v", s.Mean)
	}
	empty := ComputeBoxStats(nil)
	if empty.N != 0 {
		t.Error("empty stats not zero")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	env := tinyEnv(t)
	var buf bytes.Buffer
	RenderArchitecture(&buf, "arch", env.Model)
	res, err := RBERSweep(env, []float64{1e-3}, []Scheme{NoRecovery})
	if err != nil {
		t.Fatal(err)
	}
	RenderSweep(&buf, "sweep", res)
	rows, err := WholeLayerTable(env)
	if err != nil {
		t.Fatal(err)
	}
	RenderLayerTable(&buf, "layers", rows)
	RenderStorage(&buf, "storage", env.Protector.Storage())
	timing, err := Timing(env)
	if err != nil {
		t.Fatal(err)
	}
	RenderTiming(&buf, "timing", timing)
	pts, err := RecoveryTimeCurve(env, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	RenderRecoveryCurve(&buf, "recovery", pts)
	av, err := AvailabilityCurve(env, 12)
	if err != nil {
		t.Fatal(err)
	}
	RenderAvailability(&buf, "availability", av)
	if buf.Len() < 500 {
		t.Errorf("renderers produced only %d bytes", buf.Len())
	}
}
