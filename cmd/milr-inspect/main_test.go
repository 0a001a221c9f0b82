package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<net>.golden from current output")

// TestGolden pins the whole report of every zoo network byte for byte:
// layer names, MILR roles, solver modes, checkpoint boundaries and the
// storage bill. The plan must not depend on the worker count, so each
// network is printed at GOMAXPROCS 1 and 2 against the same file.
func TestGolden(t *testing.T) {
	for _, net := range []string{"tiny", "mnist", "cifar-small", "cifar-large"} {
		t.Run(net, func(t *testing.T) {
			path := filepath.Join("testdata", net+".golden")
			for _, procs := range []int{1, 2} {
				var buf bytes.Buffer
				prev := runtime.GOMAXPROCS(procs)
				err := run(&buf, []string{"-net", net})
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("GOMAXPROCS %d: run: %v", procs, err)
				}
				if *update {
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("GOMAXPROCS %d: output differs from %s (rerun with -update if the change is intended):\n%s",
						procs, path, buf.String())
				}
			}
		})
	}
}

func TestRunTinyNet(t *testing.T) {
	if err := run(io.Discard, []string{"-net", "tiny", "-seed", "3"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunUnknownNet(t *testing.T) {
	if err := run(io.Discard, []string{"-net", "nope"}); err == nil {
		t.Fatal("unknown network accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run(io.Discard, []string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}
