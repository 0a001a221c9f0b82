package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"milr/internal/faults"
	"milr/internal/nn"
	"milr/internal/tensor"
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
// decision taken when Options.SequentialRecovery, and later the
// tolerance, CRC-group and worker-count options, were removed: those
// removals bumped no persistVersion and need no migration. gob drops stream fields the
// receiver no longer has, so a blob saved while those options existed
// must load and self-heal to the same bits as a protector built fresh —
// even with values that would switch detection off (an infinite detect
// tolerance, a NaN keep tolerance) or that the build never used (rank
// tolerance 0, CRC group 8, 3 workers).
func TestLegacyBlobWithSequentialRecoveryLoads(t *testing.T) {
	// Mirrors of persistedState and Options as the retiring commits'
	// parents encoded them; gob matches struct fields by name.
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
	st.Opts.DetectTol, st.Opts.KeepTol = math.Inf(1), math.NaN()
	st.Opts.RankTol, st.Opts.CRCGroup = 0, 8
	st.Opts.Workers = 3
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(&st); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"SequentialRecovery", "DetectTol", "KeepTol", "CRCGroup", "Workers"} {
		if !bytes.Contains(legacy.Bytes(), []byte(field)) {
			t.Fatalf("legacy blob does not carry the removed field %s; test is vacuous", field)
		}
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

// TestLoadRejectsOtherBlobVersion: a blob in another on-disk format
// version fails with ErrBlobVersion, before its contents are decoded.
func TestLoadRejectsOtherBlobVersion(t *testing.T) {
	m, pr := tinyProtected(t, 54)
	var buf bytes.Buffer
	if err := pr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := reencode(t, buf.Bytes(), func(st *persistedState) { st.Version = persistVersion + 1 })
	_, err := LoadProtector(bytes.NewReader(blob), m)
	if !errors.Is(err, ErrBlobVersion) {
		t.Fatalf("version-%d blob: got %v, want ErrBlobVersion", persistVersion+1, err)
	}
}

func TestPartialModeStateSurvivesPersistence(t *testing.T) {
	m, err := nn.NewTinyPartialNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(54)
	pr, err := NewProtector(m, Options{Seed: 54})
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

// reencode decodes a saved blob, applies corrupt, and encodes the result:
// a blob that still decodes, with one artifact off-plan.
func reencode(t testing.TB, blob []byte, corrupt func(*persistedState)) []byte {
	t.Helper()
	var st persistedState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	corrupt(&st)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&st); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestLoadRejectsOffPlanArtifacts: LoadProtector used to accept a blob
// whose artifacts disagree with the plan, and the first SelfHeal after a
// weight flip then panicked with an index out of range. Each such blob
// must now fail to load (the error names the layer and the artifact).
// So must a blob whose dense dummy outputs were built with another band
// (it would heal against the wrong dummy rows) and one with a negative
// MaxFullSolveTaps; their errors name the band or the field.
func TestLoadRejectsOffPlanArtifacts(t *testing.T) {
	m, err := nn.NewTinyPartialNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(59)
	pr, err := NewProtector(m, Options{Seed: 59})
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := pr.Save(&saved); err != nil {
		t.Fatal(err)
	}
	// The control: re-encoding alone keeps a blob loadable, so each
	// rejection below is the corruption's.
	if _, err := LoadProtector(bytes.NewReader(reencode(t, saved.Bytes(), func(*persistedState) {})), m); err != nil {
		t.Fatalf("re-encoded blob rejected: %v", err)
	}
	// firstLayer returns the first layer entry with the artifact.
	firstLayer := func(st *persistedState, has func(persistedLayer) bool) *persistedLayer {
		for i := range st.Layers {
			if has(st.Layers[i]) {
				return &st.Layers[i]
			}
		}
		t.Fatal("no layer stores the artifact; test is vacuous")
		return nil
	}
	for _, c := range []struct {
		name, artifact string
		corrupt        func(*persistedState)
	}{
		{"partial cut to one value", "partial checkpoint", func(st *persistedState) {
			l := firstLayer(st, func(l persistedLayer) bool { return len(l.Partial) > 1 })
			l.Partial = l.Partial[:1]
		}},
		{"CRCs cut to one code", "CRC codes", func(st *persistedState) {
			l := firstLayer(st, func(l persistedLayer) bool { return len(l.CRCs) > 1 })
			l.CRCs = l.CRCs[:1]
		}},
		{"dense dummy outputs reshaped", "dense dummy outputs", func(st *persistedState) {
			l := firstLayer(st, func(l persistedLayer) bool { return l.DenseDummy != nil })
			l.DenseShape = []int{l.DenseShape[1], l.DenseShape[0]}
		}},
		{"partial mode cleared", "solver mode", func(st *persistedState) {
			l := firstLayer(st, func(l persistedLayer) bool { return l.PartialMode })
			l.PartialMode = false
		}},
		{"boundary checkpoint truncated", "boundary", func(st *persistedState) {
			b := st.Boundaries[len(st.Boundaries)-1]
			p := st.Stored[b]
			st.Stored[b] = persistedTensor{Shape: p.Shape, Data: p.Data[:len(p.Data)-1]}
		}},
		{"dense band 16", "dense band", func(st *persistedState) { st.Opts.DenseBand = 16 }},
		{"negative MaxFullSolveTaps", "MaxFullSolveTaps", func(st *persistedState) { st.Opts.MaxFullSolveTaps = -1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			blob := reencode(t, saved.Bytes(), c.corrupt)
			_, err := LoadProtector(bytes.NewReader(blob), m)
			if err == nil {
				t.Fatalf("blob with off-plan %s loaded", c.artifact)
			}
			t.Logf("rejected: %v", err)
		})
	}
}

// microNet is a model small enough to keep the fuzzer's mutations and
// minimizations cheap (a blob of about a kilobyte) that still stores a
// partial-mode conv's CRC codes (G² = 4 < F²Z = 18), a bias sum, a
// dense layer's dummy outputs and two boundary checkpoints.
func microNet() (*nn.Model, error) {
	conv, err := nn.NewConv2D(3, 2, 3, 1, nn.Valid)
	if err != nil {
		return nil, err
	}
	bias, err := nn.NewBias(3)
	if err != nil {
		return nil, err
	}
	dense, err := nn.NewDense(12, 2)
	if err != nil {
		return nil, err
	}
	return nn.NewModel(tensor.Shape{4, 4, 2}, conv, bias, nn.NewFlatten(), dense)
}

// FuzzLoadProtector: saved protector blobs are untrusted input. Whatever
// LoadProtector accepts must survive weight flips and a SelfHeal; the
// contract is an error, never a panic. The seed is a tiny protector's
// Save output.
func FuzzLoadProtector(f *testing.F) {
	m, err := microNet()
	if err != nil {
		f.Fatal(err)
	}
	m.InitWeights(60)
	pr, err := NewProtector(m, Options{Seed: 60})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pr.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Values whose index arithmetic overflowed in the heal when the blob
	// set them: a dense band near MaxInt, and a CRC group far beyond the
	// matrix it groups (MaxInt32, so that 32-bit builds compile it). Both
	// are refused at load now.
	for _, seed := range [][]byte{
		reencode(f, buf.Bytes(), func(st *persistedState) { st.Opts.DenseBand = math.MaxInt }),
		reencode(f, buf.Bytes(), func(st *persistedState) {
			for i := range st.Layers {
				for j := range st.Layers[i].CRCs {
					c := &st.Layers[i].CRCs[j]
					c.Group, c.RowCRC, c.ColCRC = math.MaxInt32, make([]uint8, c.Rows), make([]uint8, c.Cols)
				}
			}
		}),
	} {
		if _, err := LoadProtector(bytes.NewReader(seed), m); err == nil {
			f.Fatal("LoadProtector accepted an out-of-range seed blob")
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		m, err := microNet()
		if err != nil {
			t.Fatal(err)
		}
		m.InitWeights(60)
		pr, err := LoadProtector(bytes.NewReader(blob), m)
		if err != nil {
			return
		}
		for _, l := range m.Layers() {
			if p, ok := l.(nn.Parameterized); ok {
				w := p.Params().Data()
				w[0] = math.Float32frombits(math.Float32bits(w[0]) ^ 1<<30)
			}
		}
		_, _, _ = pr.SelfHeal() // any error is fine; a panic is not
	})
}

// TestCommittedBlobLoadsAndHeals pins the saved-blob format against a
// blob written by an older build: testdata/tiny-protector.gob is
// NewTinyNet with InitWeights(7), protected with Options{Seed: 42} and
// saved; its partial checkpoints are row probes. It stores each
// layer's role number, so renumbering roleKind, or any other change
// that stops old blobs decoding into the same plan, fails here.
func TestCommittedBlobLoadsAndHeals(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "tiny-protector.gob"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(7)
	clean := m.Snapshot()
	pr, err := LoadProtector(bytes.NewReader(blob), m)
	if err != nil {
		t.Fatalf("LoadProtector on the committed blob: %v", err)
	}
	m.Layer(0).(nn.Parameterized).Params().Data()[5] = 1e30
	det, rec, err := pr.SelfHealContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := det.Erroneous(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("flagged layers %v, want [0]", got)
	}
	if len(rec.Results) != 1 || rec.Results[0].Layer != 0 || rec.Results[0].Status != Recovered {
		t.Fatalf("recovery %+v, want layer 0 Recovered", rec.Results)
	}
	if diff := maxParamDiff(clean, m.Snapshot()); diff > 1e-3 {
		t.Fatalf("weights off by %g after healing from the committed blob", diff)
	}
}

// TestCommittedBlobConvPartialsMatchProbe pins the conv row probe (one
// (1, F²Z) PRNG row times the filter matrix) against checkpoints an
// older build stored: every conv partial in testdata/tiny-protector.gob
// equals the conv probe on the same clean weights bit for bit.
func TestCommittedBlobConvPartialsMatchProbe(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "tiny-protector.gob"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(7)
	pr, err := LoadProtector(bytes.NewReader(blob), m)
	if err != nil {
		t.Fatal(err)
	}
	convs := 0
	for _, lp := range pr.plan.layers {
		if lp.role != roleConv {
			continue
		}
		convs++
		probe, err := pr.probe(lp)
		if err != nil {
			t.Fatal(err)
		}
		stored := lp.partial.Data()
		if len(probe) != len(stored) {
			t.Fatalf("layer %d: probe has %d values, blob %d", lp.idx, len(probe), len(stored))
		}
		for k, v := range stored {
			if math.Float32bits(probe[k]) != math.Float32bits(v) {
				t.Fatalf("layer %d filter %d: probe %v (%#x), blob %v (%#x)",
					lp.idx, k, probe[k], math.Float32bits(probe[k]), v, math.Float32bits(v))
			}
		}
	}
	if convs == 0 {
		t.Fatal("the committed blob holds no conv layer")
	}
}

// TestCommittedV1BlobRefusedDensePartialsMatchProbe pins the format
// bump of the row probe against testdata/tiny-protector-v1.gob, the
// same recipe saved by a version-1 build, whose conv partials are the
// centre of a whole-map forward of a layer-shaped PRNG input.
// LoadProtector refuses it with ErrBlobVersion. Decoded raw, its dense
// partials equal the probe on the same clean weights bit for bit — the
// dense rule did not change — and its conv partials do not.
func TestCommittedV1BlobRefusedDensePartialsMatchProbe(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "tiny-protector-v1.gob"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(7)
	if _, err := LoadProtector(bytes.NewReader(blob), m); !errors.Is(err, ErrBlobVersion) {
		t.Fatalf("version-1 blob: got %v, want ErrBlobVersion", err)
	}
	var st persistedState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Version != 1 {
		t.Fatalf("fixture is version %d, want 1", st.Version)
	}
	pr, err := NewProtector(m, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Layers) != len(pr.plan.layers) {
		t.Fatalf("fixture has %d layers, plan %d", len(st.Layers), len(pr.plan.layers))
	}
	dense := 0
	for _, lp := range pr.plan.layers {
		if lp.role != roleConv && lp.role != roleDense {
			continue
		}
		probe, err := pr.probe(lp)
		if err != nil {
			t.Fatal(err)
		}
		stored := st.Layers[lp.idx].Partial
		if len(probe) != len(stored) {
			t.Fatalf("layer %d: probe has %d values, blob %d", lp.idx, len(probe), len(stored))
		}
		same := true
		for k, v := range stored {
			if math.Float32bits(probe[k]) != math.Float32bits(v) {
				same = false
				if lp.role == roleDense {
					t.Fatalf("dense layer %d column %d: probe %v (%#x), blob %v (%#x)",
						lp.idx, k, probe[k], math.Float32bits(probe[k]), v, math.Float32bits(v))
				}
			}
		}
		if lp.role == roleConv && same {
			t.Errorf("conv layer %d: version-1 partials equal the row probe; the fixture no longer shows the bump", lp.idx)
		}
		if lp.role == roleDense {
			dense++
		}
	}
	if dense == 0 {
		t.Fatal("the fixture holds no dense layer")
	}
}
