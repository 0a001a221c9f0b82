package main

import (
	"os"
	"testing"
)

func TestListFlag(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("run -list: %v", err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	// Every table and figure from the paper's evaluation must be
	// regenerable: tables 1–10 (IV/VI/VIII as whole-layer, V/VII/IX as
	// storage, X as timing) and figures 5–12, plus the PSEC extra.
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"table7", "table8", "table9", "table10",
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"psec",
	}
	have := map[string]bool{}
	for _, e := range experiments() {
		have[e.id] = true
		if e.title == "" {
			t.Errorf("experiment %s has no title", e.id)
		}
		if e.run == nil {
			t.Errorf("experiment %s has no runner", e.id)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
}

func TestArchitectureExperimentsRun(t *testing.T) {
	// The architecture tables need no environment and must run fast:
	// nothing is trained, so nothing lands in the weight cache.
	cache := t.TempDir()
	if err := run([]string{"-exp", "table1,table2,table3", "-cache", cache}); err != nil {
		t.Fatalf("architecture tables: %v", err)
	}
	if entries, err := os.ReadDir(cache); err != nil || len(entries) != 0 {
		t.Fatalf("architecture tables left %d weight-cache entries (err %v)", len(entries), err)
	}
}

func TestBadFlagRejected(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}
