package gateway_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"milr/internal/fleet"
	"milr/internal/gateway"
	"milr/internal/nn"
	"milr/internal/prng"
	"milr/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite the metrics golden file")

// goldenStats is a hand-built snapshot exercising every encoder path:
// one warm model with traffic (latency summary present), one idle
// model honouring the zero-traffic contract (all-zero counters, no
// latency series, MeanBatchFill exactly 0), and a model name needing
// label escaping.
func goldenStats() fleet.Stats {
	warm := fleet.ModelStats{
		Stats: serve.Stats{
			Admitted:      10,
			Rejected:      2,
			Served:        7,
			Cancelled:     1,
			Failed:        0,
			Batches:       3,
			BatchFill:     []int64{1, 0, 2, 0},
			MeanBatchFill: 7.0 / 3.0,
			QueueDepth:    2,
			Queued:        1,
			P50:           1500 * time.Microsecond,
			P99:           40 * time.Millisecond,
		},
		Weight:        3,
		QueueCap:      8,
		Scrubs:        5,
		Heals:         2,
		PartialHeals:  1,
		ScrubFailures: 1,
		ScrubTime:     1250 * time.Millisecond,
	}
	idle := fleet.ModelStats{
		Stats:    serve.Stats{BatchFill: []int64{0, 0, 0, 0}},
		Weight:   1,
		QueueCap: 0,
	}
	quoted := fleet.ModelStats{
		Stats:    serve.Stats{BatchFill: []int64{0, 0, 0, 0}},
		Weight:   1,
		QueueCap: 4,
	}
	return fleet.Stats{
		Models: map[string]fleet.ModelStats{
			"warm":       warm,
			"idle":       idle,
			"od\"d\\one": quoted,
		},
		Admitted:  10,
		Rejected:  2,
		Served:    7,
		GEMMCalls: 420,
	}
}

// TestWriteMetricsGolden pins the full exposition output byte for
// byte. Regenerate deliberately with `go test ./internal/gateway
// -run Golden -update` and review the diff like any API change.
func TestWriteMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := gateway.WriteMetrics(&buf, goldenStats()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("metrics output drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestWriteMetricsDeterministic re-encodes the same snapshot and
// demands byte equality — map iteration order must never leak into
// scrape output.
func TestWriteMetricsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := gateway.WriteMetrics(&a, goldenStats()); err != nil {
		t.Fatal(err)
	}
	if err := gateway.WriteMetrics(&b, goldenStats()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two encodings of one snapshot differ")
	}
}

// TestWriteMetricsZeroTraffic is the scraper's view of the
// zero-traffic bugfix: an idle snapshot encodes finite zeros and omits
// the latency summary rather than reporting "zero latency".
func TestWriteMetricsZeroTraffic(t *testing.T) {
	var buf bytes.Buffer
	st := fleet.Stats{Models: map[string]fleet.ModelStats{
		"idle": {Stats: serve.Stats{BatchFill: []int64{0, 0}}, Weight: 1},
	}}
	if err := gateway.WriteMetrics(&buf, st); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte(`milr_model_mean_batch_fill{model="idle"} 0`)) {
		t.Errorf("idle mean batch fill not encoded as 0:\n%s", out)
	}
	if bytes.Contains(buf.Bytes(), []byte(`milr_model_latency_seconds{model="idle"`)) {
		t.Errorf("idle model emitted latency quantiles (zero-traffic contract violated):\n%s", out)
	}
	if bytes.Contains(buf.Bytes(), []byte("NaN")) || bytes.Contains(buf.Bytes(), []byte("Inf")) {
		t.Errorf("idle snapshot emitted a non-finite value:\n%s", out)
	}
	// Every engine series must exist from the first scrape — at zero,
	// not absent — so dashboards see the model the moment it registers.
	for _, series := range []string{
		`milr_model_heals_total{model="idle"} 0`,
		`milr_model_scrub_seconds_total{model="idle"} 0`,
		"milr_gemm_calls_total 0",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(series)) {
			t.Errorf("idle snapshot missing series %q:\n%s", series, out)
		}
	}
}

// TestWriteMetricsLifecycleCycle extends the zero-traffic/NaN scan
// across a full register→serve→unregister cycle on a live fleet: every
// scrape along the way must be finite, the unregistered model's series
// must vanish, and the fleet-wide totals must never move backwards.
func TestWriteMetricsLifecycleCycle(t *testing.T) {
	f, _, _ := tinyFixture(t, fleet.Config{Workers: 1, BatchSize: 2}, fleet.ModelConfig{}, 1)
	m, err := nn.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(2)
	if err := f.Register("cycle", m, fleet.ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	scrape := func() string {
		t.Helper()
		var buf bytes.Buffer
		if err := gateway.WriteMetrics(&buf, f.Stats()); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Fatalf("non-finite value in scrape:\n%s", out)
		}
		return out
	}
	// Freshly registered, zero traffic: series present at zero, no
	// latency summary.
	out := scrape()
	if !strings.Contains(out, `milr_model_admitted_total{model="cycle"} 0`) {
		t.Fatalf("fresh model missing zero counter:\n%s", out)
	}
	if strings.Contains(out, `milr_model_latency_seconds{model="cycle"`) {
		t.Fatalf("fresh model emitted latency quantiles:\n%s", out)
	}
	stream := prng.New(99)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := f.Predict(ctx, "cycle", stream.Tensor(12, 12, 1)); err != nil {
			t.Fatal(err)
		}
	}
	out = scrape()
	if !strings.Contains(out, `milr_model_served_total{model="cycle"} 3`) {
		t.Fatalf("served counter missing after traffic:\n%s", out)
	}
	served := f.Stats().Served
	if err := f.Unregister(ctx, "cycle"); err != nil {
		t.Fatal(err)
	}
	out = scrape()
	if strings.Contains(out, `model="cycle"`) {
		t.Fatalf("unregistered model's series survived:\n%s", out)
	}
	for _, series := range []string{
		"milr_fleet_served_total " + strconv.FormatInt(served, 10),
		"milr_fleet_unregistered_total 1",
		"milr_fleet_models 1",
	} {
		if !strings.Contains(out, series) {
			t.Fatalf("post-unregister scrape missing %q (aggregates must not regress):\n%s", series, out)
		}
	}
}
