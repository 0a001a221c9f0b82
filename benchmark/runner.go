package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// spec is BENCHMARK.json, read from the directory the benchmark is run
// from (run.sh changes to the root of the checkout first).
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runAll is -workload all: every workload in a child process of this
// same binary, cfg.sets untraced sets and then one traced pass, and a
// table of each end-to-end metric's values, their relative spread and
// its bound. It fails if a child fails, an answer is wrong, or a spread
// exceeds its bound — bounds are never loosened to fit noise.
func runAll(cfg config) error {
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	printProvenance(cfg)
	child := func(wl string, trace int) (result, error) {
		args := []string{"-workload", wl, "-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
		if cfg.out != "" {
			args = append(args, "-out", cfg.out)
		}
		cmd := exec.Command(self, args...)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return res, fmt.Errorf("%s: no result line (%v): %w", wl, runErr, err)
		}
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", wl, runErr)
		}
		return res, nil
	}

	var failures []string
	sets := make([]map[string]result, cfg.sets)
	for s := range sets {
		sets[s] = map[string]result{}
		for _, wl := range workloads {
			fmt.Fprintf(os.Stderr, "\n== set %d of %d, untraced: %s ==\n", s+1, cfg.sets, wl.name)
			res, err := child(wl.name, 0)
			if err != nil {
				failures = append(failures, err.Error())
			}
			sets[s][wl.name] = res
		}
	}
	traced := map[string]result{}
	for _, wl := range workloads {
		fmt.Fprintf(os.Stderr, "\n== traced: %s ==\n", wl.name)
		res, err := child(wl.name, 1)
		if err != nil {
			failures = append(failures, err.Error())
		}
		traced[wl.name] = res
	}

	for _, wl := range workloads {
		fmt.Printf("\n%s — end to end\n%-20s %-6s", wl.name, "metric", "unit")
		for s := range sets {
			fmt.Printf(" %14s", "set "+strconv.Itoa(s+1))
		}
		fmt.Printf(" %8s %6s\n", "spread", "bound")
		for _, m := range sp.EndToEnd {
			fmt.Printf("%-20s %-6s", m.Name, m.Unit)
			lo, hi := math.Inf(1), math.Inf(-1)
			for s := range sets {
				v := sets[s][wl.name].Metrics[m.Name].Value
				lo, hi = math.Min(lo, v), math.Max(hi, v)
				fmt.Printf(" %14.4f", v)
			}
			spread := ratio(hi-lo, (hi+lo)/2)
			verdict := ""
			// The contract exempts set-up time's spread: it is a few
			// repetitions of a sub-second operation.
			if cfg.sets > 1 && spread > m.Bound && m.Name != "setup_s" {
				verdict = "  EXCEEDS BOUND"
				failures = append(failures, fmt.Sprintf("%s: %s spread %.4f exceeds bound %.4f", wl.name, m.Name, spread, m.Bound))
			}
			fmt.Printf(" %8.4f %6.3f%s\n", spread, m.Bound, verdict)
		}
	}
	fmt.Printf("\nper layer (traced pass), one column per workload\n")
	for i, wl := range workloads {
		fmt.Printf("  [%d] %s\n", i+1, wl.name)
	}
	fmt.Printf("%-41s %-7s", "metric", "unit")
	for i := range workloads {
		fmt.Printf(" %11s", "["+strconv.Itoa(i+1)+"]")
	}
	fmt.Println()
	for _, m := range sp.PerLayer {
		fmt.Printf("%-41s %-7s", m.Name, m.Unit)
		for _, wl := range workloads {
			fmt.Printf(" %11.3f", traced[wl.name].Metrics[m.Name].Value)
		}
		fmt.Println()
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d failures:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}
