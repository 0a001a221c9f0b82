// Command milr-inspect prints a network's architecture (the paper's
// Tables I–III) and the MILR protection plan a Protector would build for
// it: per-layer roles, full-vs-partial conv recoverability, checkpoint
// boundaries, and the storage bill.
//
// Usage:
//
//	milr-inspect -net mnist
//	milr-inspect -net cifar-small -seed 7
//	milr-inspect -net cifar-large
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"milr/internal/bench"
	"milr/internal/core"
	"milr/internal/zoo"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "milr-inspect:", err)
		os.Exit(1)
	}
}

// run parses args and prints the report for the chosen network to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("milr-inspect", flag.ContinueOnError)
	var (
		name = fs.String("net", "mnist", "network: "+zoo.Names())
		seed = fs.Uint64("seed", 42, "master seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := zoo.Lookup(*name)
	if err != nil {
		return err
	}
	model, err := net.Build(*seed)
	if err != nil {
		return err
	}
	title := net.Title
	if net.Table != "" {
		title += " (" + net.Table + ")"
	}
	bench.RenderArchitecture(w, title, model)

	fmt.Fprintln(w, "MILR plan:")
	prot, err := core.NewProtector(model, net.Options(*seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-4s %-12s %-12s %10s  %s\n", "idx", "layer", "role", "params", "notes")
	for _, info := range prot.PlanInfo() {
		notes := ""
		if info.BoundaryBefore {
			notes += "checkpoint-before "
		}
		if info.Role == "conv" {
			if info.FullSolve {
				notes += "full-solve "
			}
			if info.PartialMode {
				notes += "partial-recoverable "
			}
			if info.InvertNatural {
				notes += "invertible "
			}
			if info.DummyFilters > 0 {
				notes += fmt.Sprintf("dummy-filters=%d ", info.DummyFilters)
			}
		}
		fmt.Fprintf(w, "%-4d %-12s %-12s %10d  %s\n", info.Layer, info.Name, info.Role, info.Params, notes)
	}
	fmt.Fprintf(w, "\ncheckpoint boundaries (layer-input positions): %v\n\n", prot.Boundaries())
	bench.RenderStorage(w, "Storage overhead:", prot.Storage())
	return nil
}
