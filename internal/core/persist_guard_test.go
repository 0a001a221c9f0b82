package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"milr/internal/faults"
	"milr/internal/nn"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m, pr := tinyProtected(t, 51)
	var buf bytes.Buffer
	if err := pr.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty state")
	}
	// Fresh model with the same weights (they live in fault-prone memory,
	// independent of the protector state).
	m2, err := nn.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Restore(m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	pr2, err := LoadProtector(bytes.NewReader(buf.Bytes()), m2)
	if err != nil {
		t.Fatalf("LoadProtector: %v", err)
	}
	// The loaded protector must behave identically: clean detection,
	// identical plan, identical storage bill.
	rep, err := pr2.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasErrors() {
		t.Fatalf("clean network flagged after load: %+v", rep.Findings)
	}
	if got, want := pr2.Storage().MILRBytes(), pr.Storage().MILRBytes(); got != want {
		t.Errorf("storage after load %d, want %d", got, want)
	}
	b1, b2 := pr.Boundaries(), pr2.Boundaries()
	if len(b1) != len(b2) {
		t.Fatalf("boundaries %v vs %v", b1, b2)
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("boundaries %v vs %v", b1, b2)
		}
	}
}

func TestLoadedProtectorSelfHeals(t *testing.T) {
	m, pr := tinyProtected(t, 52)
	clean := m.Snapshot()
	var buf bytes.Buffer
	if err := pr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Simulate a restart: new model instance, weights corrupted in the
	// meantime.
	m2, err := nn.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Restore(clean); err != nil {
		t.Fatal(err)
	}
	pr2, err := LoadProtector(bytes.NewReader(buf.Bytes()), m2)
	if err != nil {
		t.Fatal(err)
	}
	conv := m2.Layer(0).(*nn.Conv2D)
	conv.Params().Data()[2] = math.Float32frombits(^math.Float32bits(conv.Params().Data()[2]))
	det, rec, err := pr2.SelfHeal()
	if err != nil {
		t.Fatal(err)
	}
	if !det.HasErrors() || !rec.AllRecovered() {
		t.Fatalf("loaded protector failed to self-heal: det=%v rec=%+v", det.Erroneous(), rec.Results)
	}
	if diff := maxParamDiff(clean, m2.Snapshot()); diff > 1e-3 {
		t.Fatalf("weights off by %g after loaded self-heal", diff)
	}
}

// TestLegacyBlobWithSequentialRecoveryLoads pins the persistence
// decision taken when Options.SequentialRecovery was removed:
// persistVersion stays 1 and there is no migration. gob drops stream
// fields the receiver no longer has, so a blob saved while the option
// existed — even with it set — must load and self-heal to the same bits
// as a protector built fresh.
func TestLegacyBlobWithSequentialRecoveryLoads(t *testing.T) {
	// Mirrors of persistedState and Options as the retiring commit's
	// parent encoded them; gob matches struct fields by name.
	type legacyOptions struct {
		Seed               uint64
		DetectTol, KeepTol float64
		DenseBand          int
		CRCGroup           int
		MaxFullSolveTaps   int
		RankTol            float64
		Workers            int
		SequentialRecovery bool
	}
	type legacyState struct {
		Version    int
		Opts       legacyOptions
		NumLayers  int
		Boundaries []int
		Stored     map[int]persistedTensor
		Layers     []persistedLayer
	}

	m, pr := tinyProtected(t, 54)
	clean := m.Snapshot()
	var saved bytes.Buffer
	if err := pr.Save(&saved); err != nil {
		t.Fatal(err)
	}
	var st legacyState
	if err := gob.NewDecoder(&saved).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Opts.Seed != 54 || st.Opts.DenseBand == 0 {
		t.Fatalf("mirror decoded the options wrong: %+v", st.Opts)
	}
	st.Opts.SequentialRecovery = true
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(&st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(legacy.Bytes(), []byte("SequentialRecovery")) {
		t.Fatal("legacy blob does not carry the removed field; test is vacuous")
	}

	m2, err := nn.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Restore(clean); err != nil {
		t.Fatal(err)
	}
	pr2, err := LoadProtector(&legacy, m2)
	if err != nil {
		t.Fatalf("LoadProtector on a legacy blob: %v", err)
	}
	faults.New(540).FlipExactBits(m, 48)
	faults.New(540).FlipExactBits(m2, 48)
	det, rec, err := pr.SelfHeal()
	if err != nil {
		t.Fatal(err)
	}
	det2, rec2, err := pr2.SelfHeal()
	if err != nil {
		t.Fatal(err)
	}
	if !det.HasErrors() {
		t.Fatal("corruption was not detected; test is vacuous")
	}
	if !reflect.DeepEqual(det2, det) || !reflect.DeepEqual(rec2, rec) {
		t.Errorf("loaded protector's reports differ\n got %+v %+v\nwant %+v %+v",
			det2.Findings, rec2.Results, det.Findings, rec.Results)
	}
	got := m2.Snapshot()
	for li, wt := range m.Snapshot() {
		compareTensors(t, 0, li, "weights healed from the legacy blob", wt, got[li])
	}
}

func TestLoadRejectsWrongModel(t *testing.T) {
	_, pr := tinyProtected(t, 53)
	var buf bytes.Buffer
	if err := pr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other, err := nn.NewTinyPartialNet()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProtector(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("state for a different architecture accepted")
	}
	if _, err := LoadProtector(bytes.NewReader([]byte("garbage")), other); err == nil {
		t.Fatal("garbage state accepted")
	}
}

func TestPartialModeStateSurvivesPersistence(t *testing.T) {
	m, err := nn.NewTinyPartialNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(54)
	pr, err := NewProtector(m, DefaultOptions(54))
	if err != nil {
		t.Fatal(err)
	}
	clean := m.Snapshot()
	var buf bytes.Buffer
	if err := pr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := nn.NewTinyPartialNet()
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Restore(clean); err != nil {
		t.Fatal(err)
	}
	pr2, err := LoadProtector(bytes.NewReader(buf.Bytes()), m2)
	if err != nil {
		t.Fatal(err)
	}
	// CRC localization must work from the restored codes: scattered
	// errors in the partial-mode conv recover exactly.
	var convIdx = -1
	for _, info := range pr2.PlanInfo() {
		if info.Role == "conv" && info.PartialMode {
			convIdx = info.Layer
		}
	}
	if convIdx < 0 {
		t.Fatal("partial mode not restored")
	}
	conv := m2.Layer(convIdx).(*nn.Conv2D)
	conv.Params().Data()[10] += 6
	det, rec, err := pr2.SelfHeal()
	if err != nil {
		t.Fatal(err)
	}
	if !det.HasErrors() || !rec.AllRecovered() {
		t.Fatalf("restored CRC recovery failed: %+v", rec.Results)
	}
	if diff := maxParamDiff(clean, m2.Snapshot()); diff > 1e-3 {
		t.Fatalf("weights off by %g", diff)
	}
}

func TestGuardDetectsAndRecovers(t *testing.T) {
	m, pr := tinyProtected(t, 55)
	clean := m.Snapshot()
	var mu sync.Mutex
	var events []GuardEvent
	g, err := NewGuard(pr, GuardConfig{
		Interval: time.Hour, // never fires on its own during the test
		OnEvent: func(ev GuardEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	// Clean scrub.
	g.ScrubNow()
	// Corrupt, scrub again.
	conv := m.Layer(0).(*nn.Conv2D)
	conv.Params().Data()[0] += 25
	g.ScrubNow()

	stats := g.Stats()
	if stats.Scrubs != 2 {
		t.Errorf("scrubs %d, want 2", stats.Scrubs)
	}
	if stats.ErrorsDetected != 1 || stats.Recoveries != 1 {
		t.Errorf("stats %+v", stats)
	}
	if stats.FailedRecoveries != 0 {
		t.Errorf("failed recoveries %d", stats.FailedRecoveries)
	}
	if stats.Downtime <= 0 {
		t.Error("no downtime recorded")
	}
	mu.Lock()
	n := len(events)
	mu.Unlock()
	if n != 2 {
		t.Errorf("events %d, want 2", n)
	}
	if diff := maxParamDiff(clean, m.Snapshot()); diff > 1e-3 {
		t.Errorf("weights off by %g after guard recovery", diff)
	}
}

func TestGuardRunsOnSchedule(t *testing.T) {
	_, pr := tinyProtected(t, 56)
	g, err := NewGuard(pr, GuardConfig{Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for g.Stats().Scrubs < 2 {
		select {
		case <-deadline:
			g.Stop()
			t.Fatalf("guard performed %d scrubs in 2s", g.Stats().Scrubs)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	g.Stop()
	// After Stop, no further scrubs.
	n := g.Stats().Scrubs
	time.Sleep(20 * time.Millisecond)
	if g.Stats().Scrubs != n {
		t.Error("guard scrubbed after Stop")
	}
}

func TestGuardValidation(t *testing.T) {
	_, pr := tinyProtected(t, 57)
	if _, err := NewGuard(pr, GuardConfig{Interval: 0}); err == nil {
		t.Fatal("zero interval accepted")
	}
}
