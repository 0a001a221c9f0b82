package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"milr"
	"milr/internal/obs"
)

// span is one entry of the benchmark's own span list: recorded from
// this directory's files only, around the calls into each layer.
type span struct {
	ID     int       // position in the list plus one
	Parent int       // ID of the span that caused it, 0 for a root
	Req    string    // request identifier; equals the program tracer's trace ID
	Name   string    // which boundary: gateway.serve_http, fleet.predict, fleet.scrub_once, probe.*
	Start  time.Time // wall clock, monotonic reading included
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps the spans in memory until the run ends. A nil
// recorder records nothing, which is the untraced pass.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add appends one span.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
}

// addRequest records one request: the ServeHTTP span and, beneath it,
// the Backend.Predict span the timing backend stamped (absent when the
// gateway answered without reaching the backend).
func (r *recorder) addRequest(id string, t0, t1 time.Time, bt *backendTimes) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: parent, Req: id, Name: "gateway.serve_http", Start: t0, End: t1})
	if bt != nil && !bt.end.IsZero() {
		r.spans = append(r.spans, span{ID: parent + 1, Parent: parent, Req: id, Name: "fleet.predict", Start: bt.start, End: bt.end})
	}
}

// all returns a copy of the list.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// timed runs fn and records it as a probe span.
func (r *recorder) timed(name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.add(span{Name: name, Start: t0, End: t1})
	return t1.Sub(t0)
}

// ringCapacity sizes the program tracer's ring for the whole traced
// window: the fastest workload completes about 45 k spans a second.
// Past the cap the ring keeps the most recent spans and the report
// says how many it dropped.
func ringCapacity(window time.Duration) int {
	n := int(window.Seconds()*60000) + 4096
	return min(n, 1<<20)
}

// interval is a half-open stretch of wall time.
type interval struct{ lo, hi time.Time }

// selfTime is a span's duration minus the part of that interval its
// child spans cover. Children are clipped to the parent and overlaps
// are counted once, so the result is never negative.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.lo.Before(parent.lo) {
			c.lo = parent.lo
		}
		if c.hi.After(parent.hi) {
			c.hi = parent.hi
		}
		if c.hi.After(c.lo) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo.Before(clipped[j].lo) })
	var covered time.Duration
	var end time.Time
	for _, c := range clipped {
		if c.lo.After(end) {
			end = c.lo
		}
		if c.hi.After(end) {
			covered += c.hi.Sub(end)
			end = c.hi
		}
	}
	return parent.hi.Sub(parent.lo) - covered
}

// metricSet collects one pass's metrics: into the result line and into
// the report's table.
type metricSet struct {
	rep *report
	out map[string]metric
}

func (lm *metricSet) put(name string, v float64, unit string, n int) {
	lm.out[name] = metric{v, unit}
	lm.rep.add(name, v, unit, n)
}

// putTimes reports the median of a set of timings under name.
func (lm *metricSet) putTimes(name string, samples []float64, unit string) {
	slices.Sort(samples)
	lm.put(name, quantile(samples, 0.5), unit, len(samples))
}

// result is the pass's result line.
func (lm *metricSet) result(res *phaseResult) result {
	return result{Correct: res.correct(), Attempted: max(res.ops(), 1), Failed: res.failedOps(), Metrics: lm.out}
}

// perLayer folds the traced window into per-layer metrics: the
// benchmark's own spans give the gateway/fleet boundary, the program's
// spans (folded by name) give the splits only visible inside a request,
// and the fleet's counters give exact counts. A span name the program
// does not record leaves its metric at zero samples, never a crash.
func perLayer(rep *report, res, ref *phaseResult, before, after milr.FleetStats, model string) *metricSet {
	lm := &metricSet{rep: rep, out: map[string]metric{}}

	// The benchmark's own spans: ServeHTTP and, beneath it, Backend.Predict.
	backendOf := map[int]span{} // parent ID -> fleet.predict span
	predictOf := map[string]span{}
	for _, s := range rep.spans {
		if s.Name == "fleet.predict" {
			backendOf[s.Parent] = s
			predictOf[s.Req] = s
		}
	}
	var gwSelf, predict []float64
	for _, s := range rep.spans {
		if s.Name != "gateway.serve_http" {
			continue
		}
		var kids []interval
		if b, ok := backendOf[s.ID]; ok {
			kids = append(kids, interval{b.Start, b.End})
			predict = append(predict, us(b.dur()))
		}
		gwSelf = append(gwSelf, us(selfTime(interval{s.Start, s.End}, kids)))
	}
	lm.putTimes("gateway.self_us", gwSelf, "us")
	lm.putTimes("fleet.predict_us", predict, "us")

	// The program's spans, by name and by parent.
	byName := map[string][]obs.SpanRecord{}
	kidsOf := map[uint64][]obs.SpanRecord{}
	for _, r := range rep.program {
		byName[r.Name] = append(byName[r.Name], r)
		if r.Parent != 0 {
			kidsOf[r.Parent] = append(kidsOf[r.Parent], r)
		}
	}
	self := func(r obs.SpanRecord) time.Duration {
		var kids []interval
		for _, k := range kidsOf[r.ID] {
			kids = append(kids, interval{k.Start, k.End})
		}
		return selfTime(interval{r.Start, r.End}, kids)
	}
	var waits []float64
	minWait := map[string]time.Duration{} // per request: the wait before its first batch
	for _, r := range byName["fleet.queue_wait"] {
		waits = append(waits, us(r.Duration()))
		if w, ok := minWait[r.Trace]; !ok || r.Duration() < w {
			minWait[r.Trace] = r.Duration()
		}
	}
	slices.Sort(waits)
	lm.put("fleet.queue_wait_us_p50", quantile(waits, 0.5), "us", len(waits))
	lm.put("fleet.queue_wait_us_p95", quantile(waits, 0.95), "us", len(waits))

	var assemble []float64
	for _, r := range byName["serve.batch_assemble"] {
		assemble = append(assemble, us(self(r)))
	}
	lm.putTimes("serve.assemble_self_us", assemble, "us")

	var forward, gemmPerBatch []float64
	var forwardSum, nnSelfSum time.Duration
	forwardOf := map[string]time.Duration{} // per request that led a batch: its forward time
	gemmSpans := 0
	for _, r := range byName["nn.forward_batch"] {
		forward = append(forward, us(r.Duration()))
		forwardSum += r.Duration()
		nnSelfSum += self(r)
		forwardOf[r.Trace] += r.Duration()
		var g time.Duration
		for _, k := range kidsOf[r.ID] {
			if k.Name == "tensor.gemm" {
				g += k.Duration()
				gemmSpans++
			}
		}
		gemmPerBatch = append(gemmPerBatch, us(g))
	}
	lm.putTimes("nn.forward_batch_us", forward, "us")
	lm.putTimes("tensor.gemm_us_per_batch", gemmPerBatch, "us")
	lm.put("tensor.gemm_calls_per_batch", ratio(float64(gemmSpans), float64(len(forward))), "count", len(forward))
	lm.put("nn.self_share", ratio(float64(nnSelfSum), float64(forwardSum)), "share", len(forward))

	// Dispatch self time, on the requests that led a batch (their trace
	// holds the batch's forward span): the Backend.Predict interval minus
	// the queue wait and the forward pass — admission, wake-up, assembly
	// and handing the answer back.
	var dispatch []float64
	for req, fwd := range forwardOf {
		if p, ok := predictOf[req]; ok {
			dispatch = append(dispatch, us(max(p.dur()-minWait[req]-fwd, 0)))
		}
	}
	lm.putTimes("fleet.dispatch_self_us", dispatch, "us")

	// Exact counts from the fleet's own counters, over the traced window.
	b, a := before.Models[model], after.Models[model]
	batches := a.Batches - b.Batches
	lm.put("fleet.batches", float64(batches), "count", 0)
	lm.put("fleet.mean_batch_fill", ratio(float64(a.Served-b.Served), float64(batches)), "req", int(batches))
	lm.put("fleet.admitted", float64(a.Admitted-b.Admitted), "count", 0)
	lm.put("fleet.served", float64(a.Served-b.Served), "count", 0)
	lm.put("fleet.rejected", float64(a.Rejected-b.Rejected), "count", 0)
	lm.put("tensor.gemm_calls", float64(after.GEMMCalls-before.GEMMCalls), "count", 0)

	// The generator's own account.
	var bytes, ok2xx, answered int
	var late []float64
	for _, r := range res.reqs {
		bytes += int(r.bytes)
		if r.status >= 200 && r.status < 300 {
			ok2xx++
		}
		if r.ok {
			answered++
		}
		late = append(late, ms(r.late))
	}
	slices.Sort(late)
	lat := res.latencies()
	lm.put("gateway.body_bytes_per_req", ratio(float64(bytes), float64(len(res.reqs))), "B", len(res.reqs))
	lm.put("gateway.status_2xx", float64(ok2xx), "count", 0)
	lm.put("gateway.status_other", float64(len(res.reqs)-ok2xx), "count", 0)
	lm.put("loadgen.sent", float64(len(res.reqs)), "count", 0)
	lm.put("loadgen.ok", float64(answered), "count", 0)
	lm.put("loadgen.failed", float64(len(res.reqs)-answered), "count", 0)
	lm.put("loadgen.late_p99_ms", quantile(late, 0.99), "ms", len(late))
	lm.put("loadgen.latency_p95_ms", res.steady().p95, "ms", len(lat))
	lm.put("loadgen.latency_p99_ms", quantile(lat, 0.99), "ms", len(lat))
	lm.put("loadgen.latency_max_ms", quantile(lat, 1), "ms", len(lat))
	lm.put("loadgen.slo_miss_share", res.sloMissShare(), "share", len(res.reqs))
	refRate, tracedRate := ref.steady().throughput, res.steady().throughput
	lm.put("loadgen.trace_overhead_pct", 100*ratio(refRate-tracedRate, refRate), "%", 0)

	// What the traced window's scrubs cost, where the workload makes any;
	// in-window detail that only some workloads have goes to the table
	// and not to the result line.
	var scrubs []float64
	for _, s := range res.scrubs {
		scrubs = append(scrubs, ms(s.dur))
	}
	if len(scrubs) > 0 {
		slices.Sort(scrubs)
		rep.add("core.scrub_ms.in_window", quantile(scrubs, 0.5), "ms", len(scrubs))
	}
	for _, name := range []string{"core.detect", "core.recover"} {
		var d []float64
		for _, r := range byName[name] {
			d = append(d, ms(r.Duration()))
		}
		if len(d) > 0 {
			slices.Sort(d)
			rep.add(name+"_ms.in_window", quantile(d, 0.5), "ms", len(d))
		}
	}
	return lm
}

// spanJSON is one line of the spans file: the benchmark's own spans and
// the program's, in one schema.
type spanJSON struct {
	Source  string `json:"source"` // "benchmark" or "program"
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Req     string `json:"req,omitempty"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"` // since the process started measuring
	DurUS   int64  `json:"dur_us"`
}

// write puts the traced pass's spans and per-layer table under dir.
func (r *report) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("-out: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return fmt.Errorf("-out: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(spanJSON{"benchmark", uint64(s.ID), uint64(s.Parent), s.Req, s.Name,
			s.Start.Sub(r.origin).Microseconds(), s.dur().Microseconds()}); err != nil {
			f.Close()
			return fmt.Errorf("-out: %w", err)
		}
	}
	for _, s := range r.program {
		if err := enc.Encode(spanJSON{"program", s.ID, s.Parent, s.Trace, s.Name,
			s.Start.Sub(r.origin).Microseconds(), s.Duration().Microseconds()}); err != nil {
			f.Close()
			return fmt.Errorf("-out: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("-out: %w", err)
	}
	table := filepath.Join(dir, workload+".layers.txt")
	if err := os.WriteFile(table, []byte(r.render()), 0o644); err != nil {
		return fmt.Errorf("-out: %w", err)
	}
	return nil
}
