package bench

import (
	"bytes"
	"runtime"
	"testing"
)

// Determinism regression for sharded campaigns: the same master seed
// must yield byte-identical experiment summaries at every worker count.
// The contract rests on per-cell PRNG streams derived from (seed, rate
// index, run index) alone — never from worker identity or scheduling —
// plus bit-identical parallel solvers underneath.

func shardWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g > 4 {
		counts = append(counts, g)
	}
	return counts
}

// renderCampaigns runs one RBER sweep point grid and one whole-layer
// table and renders both — bytes are the regression unit because the
// rendered tables are the experiment artifact.
func renderCampaigns(t *testing.T, env *Env) []byte {
	t.Helper()
	var buf bytes.Buffer
	sweepRes, err := RBERSweep(env, []float64{5e-4, 2e-3}, []Scheme{NoRecovery, MILROnly, ECCPlusMILR})
	if err != nil {
		t.Fatal(err)
	}
	RenderSweep(&buf, "determinism: RBER", sweepRes)
	rows, err := WholeLayerTable(env)
	if err != nil {
		t.Fatal(err)
	}
	RenderLayerTable(&buf, "determinism: whole-layer", rows)
	return buf.Bytes()
}

func TestShardedCampaignDeterminism(t *testing.T) {
	cfg := Config{Runs: 3, TestSamples: 24, TrainSamples: 60, Epochs: 2, Seed: 1234}
	env, err := BuildEnv("tiny", cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	env.SetWorkers(0) // serial reference
	want := renderCampaigns(t, env)
	if len(want) == 0 {
		t.Fatal("empty reference summary")
	}
	for _, workers := range shardWorkerCounts() {
		env.SetWorkers(workers)
		got := renderCampaigns(t, env)
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: summary differs from serial reference\n got:\n%s\nwant:\n%s",
				workers, got, want)
		}
	}
	env.SetWorkers(0)
}

// TestCloneIsIndependent pins Clone's isolation contract: corrupting a
// clone never leaks into the master environment, and the clone detects
// and heals with its own protector.
func TestCloneIsIndependent(t *testing.T) {
	cfg := Config{Runs: 1, TestSamples: 16, TrainSamples: 40, Epochs: 2, Seed: 7}
	env, err := BuildEnv("tiny", cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	clone, err := env.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if clone.Model == env.Model || clone.Protector == env.Protector {
		t.Fatal("clone shares mutable state with master")
	}
	// Same trained weights.
	for li, wt := range env.Model.Snapshot() {
		cd := clone.Model.Snapshot()[li].Data()
		for i, v := range wt.Data() {
			if cd[i] != v {
				t.Fatalf("layer %d weight %d differs in clone", li, i)
			}
		}
	}
	cloneAccBefore, err := clone.NormalizedAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if cloneAccBefore != 1.0 {
		t.Fatalf("clean clone normalized accuracy %v, want 1.0", cloneAccBefore)
	}
	res, err := RBERSweep(clone, []float64{5e-3}, []Scheme{NoRecovery})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("got %d points", len(res.Points))
	}
	masterAcc, err := env.NormalizedAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if masterAcc != 1.0 {
		t.Fatalf("master accuracy %v after clone campaign, want 1.0", masterAcc)
	}
	det, err := env.Protector.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if det.HasErrors() {
		t.Fatalf("master protector flags errors after clone campaign: %+v", det.Findings)
	}
}
