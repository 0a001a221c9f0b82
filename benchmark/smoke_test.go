package main

import (
	"context"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"

	"milr/internal/faults"
)

// smokeSeconds is the scale every workload runs at here: long enough
// for each to complete operations, short enough for tier-1.
const smokeSeconds = 0.3

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func keys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Every workload runs, untraced and traced, and prints exactly the
// metrics BENCHMARK.json lists, by those names and units; the traced
// pass's spans nest and no self time is negative.
func TestSmokeMatchesSpec(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var specNames []string
	for _, w := range sp.Workloads {
		specNames = append(specNames, w.Name)
	}
	if got := workloadNames(); !slices.Equal(got, specNames) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, specNames)
	}
	for _, wl := range workloads {
		if !nameRE.MatchString(wl.name) {
			t.Errorf("workload name %q uses characters outside letters, digits, _ . -", wl.name)
		}
		for pass, want := range map[bool][]specMetric{false: sp.EndToEnd, true: sp.PerLayer} {
			res, rep, err := runWorkload(wl, config{workload: wl.name, seed: 5, seconds: smokeSeconds, trace: pass})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, pass, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d on clean weights", wl.name, pass, res.Correct, res.Attempted, res.Failed)
			}
			var wantNames []string
			units := map[string]string{}
			for _, m := range want {
				wantNames = append(wantNames, m.Name)
				units[m.Name] = m.Unit
			}
			sort.Strings(wantNames)
			if got := keys(res.Metrics); !slices.Equal(got, wantNames) {
				t.Errorf("%s trace=%v prints %v\nBENCHMARK.json lists %v", wl.name, pass, got, wantNames)
			}
			for name, m := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("metric name %q uses characters outside letters, digits, _ . -", name)
				}
				if m.Unit != units[name] {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wl.name, name, m.Unit, units[name])
				}
			}
			if !pass {
				for _, name := range []string{"setup_s", "throughput_ops_s", "latency_p50_ms", "alloc_kb_per_op", "rss_peak_mb", "ok_share"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want above 0", wl.name, name, res.Metrics[name].Value)
					}
				}
				continue
			}
			lg := res.Metrics
			if sent, ok, failed := lg["loadgen.sent"].Value, lg["loadgen.ok"].Value, lg["loadgen.failed"].Value; sent < 1 || sent != ok+failed {
				t.Errorf("%s: sent %v != ok %v + failed %v", wl.name, sent, ok, failed)
			}
			checkSpans(t, wl.name, rep)
		}
	}
}

// checkSpans asserts the benchmark's own span list is well formed: a
// child lies inside its parent, and self times are not negative.
func checkSpans(t *testing.T, workload string, rep *report) {
	t.Helper()
	if len(rep.spans) == 0 || len(rep.program) == 0 {
		t.Errorf("%s: traced pass kept %d own spans and %d program spans, want both", workload, len(rep.spans), len(rep.program))
	}
	byID := map[int]span{}
	kids := map[int][]interval{}
	names := map[string]bool{}
	for _, s := range rep.spans {
		byID[s.ID] = s
		names[s.Name] = true
		if s.End.Before(s.Start) {
			t.Errorf("%s: span %d (%s) ends before it starts", workload, s.ID, s.Name)
		}
	}
	for _, s := range rep.spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s: span %d (%s) names parent %d, which is not in the list", workload, s.ID, s.Name, s.Parent)
			continue
		}
		if s.Start.Before(p.Start) || s.End.After(p.End) {
			t.Errorf("%s: span %d (%s) [%v, %v] is not inside its parent %d (%s) [%v, %v]",
				workload, s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
	}
	for id, ks := range kids {
		p := byID[id]
		if self := selfTime(interval{p.Start, p.End}, ks); self < 0 || self > p.dur() {
			t.Errorf("%s: span %d (%s) has self time %v of %v", workload, id, p.Name, self, p.dur())
		}
	}
	for _, name := range []string{"gateway.serve_http", "fleet.predict", "probe.core.recover.dense-layer", "probe.linalg.qr_factor", "probe.crc2d.locate"} {
		if !names[name] {
			t.Errorf("%s: no %s span recorded", workload, name)
		}
	}
}

// selfTime clips children to the parent and counts overlaps once.
func TestSelfTime(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := interval{at(10), at(110)}
	kids := []interval{{at(0), at(20)}, {at(15), at(40)}, {at(100), at(150)}, {at(200), at(210)}}
	if got, want := selfTime(parent, kids), 60*time.Millisecond; got != want {
		t.Fatalf("self time %v, want %v (covered: 10–40 and 100–110)", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Fatalf("self time without children %v, want the whole span", got)
	}
}

// The oracle check is live on the read side: a served model that is
// corrupted and never scrubbed answers wrongly, and the run says so.
func TestCorruptModelFailsOracle(t *testing.T) {
	ctx := context.Background()
	wl, _ := workloadByName("predict-tiny-closed")
	e, err := newEnv(ctx, wl, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	faults.New(9).OverwriteModel(e.model) // before any traffic: nothing else touches the weights yet
	res, err := e.runPhase(ctx, e.plain, nil, 200*time.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.okShare() >= 1 || res.failedOps() == 0 || res.correct() {
		t.Fatalf("every weight overwritten, yet ok_share=%v, %d failures of %d, correct=%v", res.okShare(), res.failedOps(), res.ops(), res.correct())
	}
}

// And on the write side: a heal cycle whose scrub is skipped leaves the
// fault in place, the post-heal answers disagree with the oracle, and
// no cycle counts as healed.
func TestSkippedScrubFailsOracle(t *testing.T) {
	ctx := context.Background()
	wl, _ := workloadByName("heal-dense-layer")
	e, err := newEnv(ctx, wl, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.skipScrub = true
	res, err := e.runPhase(ctx, e.plain, nil, 200*time.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.okShare() >= healFloor || res.healed != 0 || res.okCycles != 0 || res.correct() {
		t.Fatalf("scrub skipped, yet ok_share=%v, %d of %d cycles healed, %d ok, correct=%v", res.okShare(), res.healed, res.cycles, res.okCycles, res.correct())
	}
}
