package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"milr"
)

func TestSmallClosedLoopRuns(t *testing.T) {
	if err := run([]string{"-models", "tiny,tiny", "-skew", "75,25", "-clients", "8", "-requests", "6"}); err != nil {
		t.Fatalf("small closed loop: %v", err)
	}
}

// TestSingleModelRuns is the single-server load test: one model, -skew
// omitted so the share defaults, and the uncoalesced arm of the
// coalesced/uncoalesced A/B as a second run.
func TestSingleModelRuns(t *testing.T) {
	if err := run([]string{"-models", "tiny", "-clients", "8", "-requests", "6"}); err != nil {
		t.Fatalf("single model: %v", err)
	}
	if err := run([]string{"-models", "tiny", "-clients", "8", "-requests", "6", "-batch", "1", "-delay", "0"}); err != nil {
		t.Fatalf("single model, uncoalesced: %v", err)
	}
}

func TestGuardedSingleModelRuns(t *testing.T) {
	if err := run([]string{
		"-models", "tiny", "-clients", "4", "-requests", "6",
		"-guard", "5ms", "-corrupt", "0.001",
	}); err != nil {
		t.Fatalf("guarded single model: %v", err)
	}
}

// TestTraceDumpRuns checks -trace end to end: the timeline printed
// after the run must hold the fleet path's spans from admission down to
// the GEMM kernel.
func TestTraceDumpRuns(t *testing.T) {
	// A file, not a pipe: run writes everything before anyone reads.
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	runErr := run([]string{"-models", "tiny", "-clients", "4", "-requests", "3", "-trace", "64"})
	os.Stdout = stdout
	f.Close()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("traced run: %v\noutput:\n%s", runErr, out)
	}
	for _, want := range []string{"trace milr-fleet", "fleet.admit", "fleet.queue_wait", "serve.batch_assemble", "nn.forward_batch", "tensor.gemm"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

// TestOpenLoopWithCapRuns: the open loop issues exactly
// round(rate·duration) arrivals — the old sleep-per-arrival loop never
// made up its overshoot and fell short of -rate — splits them by -skew,
// and accounts for every one of them.
func TestOpenLoopWithCapRuns(t *testing.T) {
	if err := run([]string{
		"-models", "tiny,tiny", "-skew", "50,50",
		"-open-loop", "-rate", "400", "-duration", "250ms",
		"-cap", "2", "-deadline", "250ms",
	}); err != nil {
		t.Fatalf("open loop: %v", err)
	}

	specs, err := buildSpecs("tiny,tiny", "50,50", "", 42)
	if err != nil {
		t.Fatal(err)
	}
	rt := milr.NewRuntime(milr.WithSeed(42), milr.WithQueueCap(2), milr.WithDefaultDeadline(250*time.Millisecond))
	fl := milr.NewFleet(rt)
	defer fl.Close()
	for _, sp := range specs {
		if err := fl.Register(sp.name, sp.model, milr.WithModelWeight(sp.weight)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := runOpenLoop(context.Background(), fl, specs, 400, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.PerTarget {
		if c.Issued != 50 {
			t.Errorf("%s: %d arrivals, want 50 of the 100 that -rate 400 -duration 250ms schedules", specs[i].name, c.Issued)
		}
		if c.Correct+c.Rejected+c.Expired != c.Issued || c.Wrong != 0 {
			t.Errorf("%s: counts %+v do not account for every arrival on clean weights", specs[i].name, c)
		}
	}
	if res.IssueElapsed < 247*time.Millisecond {
		t.Errorf("100 arrivals at 400 req/s issued in %v; the last is due at 247.5ms", res.IssueElapsed)
	}
	if _, err := runOpenLoop(context.Background(), fl, specs, 1, time.Millisecond); err == nil {
		t.Error("a schedule with no arrivals accepted")
	}
}

func TestGuardedFleetRuns(t *testing.T) {
	if err := run([]string{
		"-models", "tiny,tiny", "-skew", "60,40", "-clients", "4", "-requests", "6",
		"-guard", "5ms", "-corrupt", "0.001",
	}); err != nil {
		t.Fatalf("guarded fleet: %v", err)
	}
}

func TestUnknownNetworkRejected(t *testing.T) {
	if err := run([]string{"-models", "resnet50", "-skew", "100"}); err == nil {
		t.Fatal("unknown network accepted")
	}
}

func TestMismatchedSkewRejected(t *testing.T) {
	if err := run([]string{"-models", "tiny,tiny", "-skew", "100"}); err == nil {
		t.Fatal("skew/models length mismatch accepted")
	}
}

func TestCorruptWithoutGuardRejected(t *testing.T) {
	if err := run([]string{"-corrupt", "0.01"}); err == nil {
		t.Fatal("-corrupt without -guard accepted")
	}
}

func TestBadFlagRejected(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}
