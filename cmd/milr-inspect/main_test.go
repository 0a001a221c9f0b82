package main

import "testing"

func TestRunTinyNet(t *testing.T) {
	if err := run([]string{"-net", "tiny", "-seed", "3"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunUnknownNet(t *testing.T) {
	if err := run([]string{"-net", "nope"}); err == nil {
		t.Fatal("unknown network accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}
