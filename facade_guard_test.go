package milr_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"milr"
)

func TestFacadeGuardLifecycle(t *testing.T) {
	model, err := milr.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(7)
	prot, err := milr.NewRuntime(milr.WithSeed(7)).Protect(context.Background(), model)
	if err != nil {
		t.Fatal(err)
	}
	guard, err := milr.NewGuard(prot, milr.GuardConfig{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var target milr.Parameterized
	for _, l := range model.Layers() {
		if p, ok := l.(milr.Parameterized); ok {
			target = p
			break
		}
	}
	target.Params().Data()[0] += 30
	guard.ScrubNow()
	stats := guard.Stats()
	guard.Stop()
	if stats.Scrubs != 1 || stats.Recoveries != 1 {
		t.Fatalf("guard stats %+v", stats)
	}
}

func TestFacadePersistence(t *testing.T) {
	model, err := milr.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(8)
	prot, err := milr.NewRuntime(milr.WithSeed(8)).Protect(context.Background(), model)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := milr.SaveProtector(prot, &buf); err != nil {
		t.Fatal(err)
	}
	prot2, err := milr.LoadProtector(bytes.NewReader(buf.Bytes()), model)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := prot2.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasErrors() {
		t.Fatalf("clean network flagged after facade load: %+v", rep.Findings)
	}
}
