package serve

import (
	"sort"
	"sync"
	"time"
)

// Stats is a point-in-time snapshot of one model queue's counters (a
// fleet backend's). All counters
// describe the whole lifetime of the queue up to the snapshot; the
// latency quantiles describe a bounded sliding window (see P50).
type Stats struct {
	// Admitted counts requests accepted into the queue.
	Admitted int64
	// Rejected counts requests refused at admission because the queue
	// was at its configured cap (fast-fail admission control — the
	// ErrQueueFull path).
	// Always zero for an uncapped queue.
	Rejected int64
	// Served counts requests answered with a prediction.
	Served int64
	// Cancelled counts requests dropped at flush time because their
	// context was done. Callers that gave up waiting are counted here
	// too, once their batch flushes.
	Cancelled int64
	// Failed counts requests answered with a batch-execution error.
	Failed int64
	// Batches counts ForwardBatch invocations (coalesced GEMM rounds).
	Batches int64
	// BatchFill is the coalescing histogram: BatchFill[i] batches
	// executed with i+1 requests. Its length is the configured batch
	// size, so the last bucket counts full batches.
	BatchFill []int64
	// MeanBatchFill is the mean executed batch size — the direct
	// measure of how much coalescing happened (1.0 = none). Zero-
	// traffic contract: until the first batch executes it is exactly 0,
	// never NaN, so a metrics scraper polling an idle server always
	// reads a finite number.
	MeanBatchFill float64
	// QueueDepth is the number of requests admitted but not yet
	// answered at snapshot time (queued or in the in-flight batch).
	QueueDepth int
	// Queued is the number of requests sitting in the admission queue
	// right now, awaiting a batch — the quantity a queue cap bounds.
	// (QueueDepth additionally counts requests already in an executing
	// batch.) Filled by the fleet's per-model snapshot, not by
	// Collector.Snapshot, which cannot see the queue.
	Queued int
	// P50 and P99 are latency quantiles over served requests, measured
	// from admission to answer. They are exact (nearest-rank) over a
	// sliding window of the last LatencyWindow served requests, so a
	// long-lived server's stats memory stays bounded while the
	// quantiles still track current behaviour rather than lifetime
	// history. Zero-traffic contract: until the first request has been
	// served the window is empty and both quantiles are exactly 0 —
	// "no data yet", not "zero latency"; consumers that must tell the
	// two apart (the gateway's /metrics encoder does) should gate on
	// Served > 0.
	P50, P99 time.Duration
}

// LatencyWindow is the size of the bounded latency ring behind the
// P50/P99 quantiles: once more than this many requests have been
// served, each new latency overwrites the oldest one.
const LatencyWindow = 4096

// Collector accumulates Stats under its own lock so recording never
// contends with the admission path's queue lock (the collector's mutex
// is a leaf lock). The fleet router keeps one per registered model.
// The zero value is not usable — build one with NewCollector.
type Collector struct {
	mu          sync.Mutex
	admitted    int64
	rejected    int64
	served      int64
	cancelled   int64
	failed      int64
	batches     int64
	fillSum     int64
	outstanding int64
	fill        []int64
	// lat is the bounded latency ring: it grows to LatencyWindow and
	// then wraps, latPos pointing at the oldest (next overwritten)
	// entry.
	lat    []time.Duration
	latPos int
}

// NewCollector builds a Collector whose batch-fill histogram spans
// batch sizes 1..batchSize.
func NewCollector(batchSize int) *Collector {
	if batchSize < 1 {
		batchSize = 1
	}
	return &Collector{fill: make([]int64, batchSize)}
}

// Admit records one request accepted into the queue.
func (c *Collector) Admit() {
	c.mu.Lock()
	c.admitted++
	c.outstanding++
	c.mu.Unlock()
}

// Reject records one request refused at admission (queue at cap).
func (c *Collector) Reject() {
	c.mu.Lock()
	c.rejected++
	c.mu.Unlock()
}

// Cancel records one admitted request dropped before execution: at
// flush time because its context was done, or unqueued by a
// PredictBatch whose later admissions failed.
func (c *Collector) Cancel() {
	c.mu.Lock()
	c.cancelled++
	c.outstanding--
	c.mu.Unlock()
}

// Serve records one successful batch of n requests and their latencies.
func (c *Collector) Serve(n int, lats []time.Duration) {
	c.mu.Lock()
	c.served += int64(n)
	c.outstanding -= int64(n)
	c.recordBatch(n)
	for _, l := range lats {
		if len(c.lat) < LatencyWindow {
			c.lat = append(c.lat, l)
			continue
		}
		c.lat[c.latPos] = l
		c.latPos = (c.latPos + 1) % LatencyWindow
	}
	c.mu.Unlock()
}

// Fail records one failed batch of n requests. The batch still ran a
// GEMM, so it still counts toward the coalescing histogram.
func (c *Collector) Fail(n int) {
	c.mu.Lock()
	c.failed += int64(n)
	c.outstanding -= int64(n)
	c.recordBatch(n)
	c.mu.Unlock()
}

// recordBatch must be called with c.mu held.
func (c *Collector) recordBatch(n int) {
	c.batches++
	c.fillSum += int64(n)
	if n >= 1 && n <= len(c.fill) {
		c.fill[n-1]++
	}
}

// Snapshot returns the collector's current Stats. Only the copies
// happen under the collector's lock; the quantile sort runs outside
// it, so a monitoring loop polling Snapshot never stalls the
// admission/serve hot path for the sort's duration.
func (c *Collector) Snapshot() Stats {
	c.mu.Lock()
	st := Stats{
		Admitted:   c.admitted,
		Rejected:   c.rejected,
		Served:     c.served,
		Cancelled:  c.cancelled,
		Failed:     c.failed,
		Batches:    c.batches,
		BatchFill:  append([]int64(nil), c.fill...),
		QueueDepth: int(c.outstanding),
	}
	if c.batches > 0 {
		st.MeanBatchFill = float64(c.fillSum) / float64(c.batches)
	}
	lat := append([]time.Duration(nil), c.lat...)
	c.mu.Unlock()
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		st.P50 = quantile(lat, 0.50)
		st.P99 = quantile(lat, 0.99)
	}
	return st
}

// quantile returns the nearest-rank q-quantile of a sorted latency
// window. An empty window reports 0 (the zero-traffic contract on
// Stats.P50/P99) rather than indexing sorted[-1]: the rank clamps used
// to assume at least one entry, and Snapshot's len-guard was the only
// thing between an idle scrape and a panic.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q * float64(len(sorted)))
	if float64(rank) < q*float64(len(sorted)) {
		rank++ // ceil for non-integer ranks
	}
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
