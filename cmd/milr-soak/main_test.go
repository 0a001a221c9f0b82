package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRunSmokeCheck runs the CI smoke campaign end to end: the smoke
// scenario on two tiny nets with -check. Availabilities lie in [0, 1],
// so -tolerance 1 cannot bind: the test asserts checkReport's
// deterministic gates (injections, heals, nothing rejected or expired,
// a valid fit) and leaves the wall-clock Eq. 6 fit — which a loaded
// host moves — to the CI "soak smoke" step that runs the binary.
func TestRunSmokeCheck(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-seed", "42", "-check", "-tolerance", "1"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"soak smoke:", "eq6: predicted=", "heals="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunJSON checks the machine-readable report decodes and carries
// the campaign's key fields.
func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "rber", "-seed", "7", "-json"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep struct {
		Scenario string
		Seed     uint64
		Windows  int
		Issued   int
		Scrubs   int64
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rep.Scenario != "rber" || rep.Seed != 7 || rep.Windows == 0 || rep.Issued == 0 || rep.Scrubs == 0 {
		t.Errorf("report fields off: %+v", rep)
	}
}

// TestRunFlagErrors covers the argument-validation exits.
func TestRunFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "nope"}, &out); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"-models", "nope"}, &out); err == nil {
		t.Error("unknown model accepted")
	}
}
