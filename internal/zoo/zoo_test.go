package zoo

import (
	"errors"
	"math"
	"strings"
	"testing"

	"milr/internal/tensor"
)

func TestEveryEntryBuilds(t *testing.T) {
	for _, n := range networks {
		m, err := n.Build(1)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if m == nil || m.ParamCount() == 0 || n.Title == "" {
			t.Fatalf("%s: degenerate entry %+v", n.Name, n)
		}
		wantTaps := 0
		if n.Name == "cifar-large" {
			wantTaps = 1 // §V-D: every conv partial-recoverable
		}
		if got := n.Options(1).MaxFullSolveTaps; got != wantTaps {
			t.Errorf("%s: MaxFullSolveTaps = %d, want %d", n.Name, got, wantTaps)
		}
		if got := n.Options(9).Seed; got != 9 {
			t.Errorf("%s: Options(9).Seed = %d", n.Name, got)
		}
	}
}

// TestDatasetFitsNetwork: every row's dataset feeds its network, image
// for image and class for class.
func TestDatasetFitsNetwork(t *testing.T) {
	for _, n := range networks {
		m, err := n.New()
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		d := n.Data
		if in := (tensor.Shape{d.Height, d.Width, d.Channels}); !in.Equal(m.InShape()) {
			t.Errorf("%s: dataset images %v, network input %v", n.Name, in, m.InShape())
		}
		if out := m.OutShape(); out.NumElements() != d.Classes {
			t.Errorf("%s: dataset has %d classes, network output %v", n.Name, d.Classes, out)
		}
	}
}

func TestLookupRoundTrips(t *testing.T) {
	for _, n := range networks {
		got, err := Lookup(n.Name)
		if err != nil || got.Name != n.Name {
			t.Errorf("Lookup(%q) = %q, %v", n.Name, got.Name, err)
		}
	}
	if _, err := Lookup("resnet"); !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("Lookup(resnet) err = %v, want ErrUnknownNetwork", err)
	}
	if want := "tiny, mnist, cifar-small, cifar-large"; Names() != want {
		t.Errorf("Names() = %q, want %q", Names(), want)
	}
}

func TestParseList(t *testing.T) {
	cases := []struct {
		list  string
		seed  uint64
		names []string
	}{
		{"tiny,tiny,mnist", 42, []string{"tiny-1", "tiny-2", "mnist"}},
		{" tiny ,mnist, tiny", 7, []string{"tiny-1", "mnist", "tiny-2"}},
		{"cifar-large", 0, []string{"cifar-large"}},
	}
	for _, c := range cases {
		got, err := ParseList(c.list, c.seed)
		if err != nil {
			t.Fatalf("ParseList(%q): %v", c.list, err)
		}
		if len(got) != len(c.names) {
			t.Fatalf("ParseList(%q): %d instances, want %d", c.list, len(got), len(c.names))
		}
		for i, in := range got {
			if in.Name != c.names[i] || in.Seed != c.seed+uint64(i) {
				t.Errorf("ParseList(%q)[%d] = %s seed %d, want %s seed %d",
					c.list, i, in.Name, in.Seed, c.names[i], c.seed+uint64(i))
			}
			if !strings.HasPrefix(in.Name, in.Network.Name) {
				t.Errorf("ParseList(%q)[%d]: name %s over network %s", c.list, i, in.Name, in.Network.Name)
			}
		}
	}
	for _, bad := range []string{"", "tiny,", "tiny,resnet", "tiny tiny"} {
		if _, err := ParseList(bad, 1); !errors.Is(err, ErrUnknownNetwork) {
			t.Errorf("ParseList(%q) err = %v, want ErrUnknownNetwork", bad, err)
		}
	}
}

func TestProbesDeterministicPerSeed(t *testing.T) {
	n, err := Lookup("tiny")
	if err != nil {
		t.Fatal(err)
	}
	m, err := n.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	a, wantA, err := Probes(m, 11, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, wantB, err := Probes(m, 11, 6)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := Probes(m, 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for i := range a {
		if !a[i].Shape().Equal(m.InShape()) {
			t.Fatalf("probe %d has shape %v, want %v", i, a[i].Shape(), m.InShape())
		}
		if wantA[i] != wantB[i] {
			t.Errorf("probe %d: answers %d and %d from one seed", i, wantA[i], wantB[i])
		}
		if direct, err := m.Predict(a[i]); err != nil || direct != wantA[i] {
			t.Errorf("probe %d: recorded answer %d, direct Predict %d (%v)", i, wantA[i], direct, err)
		}
		for j, v := range a[i].Data() {
			if math.Float32bits(v) != math.Float32bits(b[i].Data()[j]) {
				t.Fatalf("probe %d element %d differs between two draws of one seed", i, j)
			}
			if v != c[i].Data()[j] {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("seeds 11 and 12 drew identical probes")
	}
}

// FuzzParseList: any flag string either fails with ErrUnknownNetwork or
// yields one uniquely named instance per comma-separated entry, each a
// table row seeded seed+i.
func FuzzParseList(f *testing.F) {
	for _, s := range []string{"tiny", "tiny,tiny", "mnist,tiny", "tiny,tiny,mnist", " cifar-small , cifar-large ", "", ",", "tiny-1,tiny"} {
		f.Add(s, uint64(42))
	}
	f.Fuzz(func(t *testing.T, list string, seed uint64) {
		got, err := ParseList(list, seed)
		if err != nil {
			if !errors.Is(err, ErrUnknownNetwork) {
				t.Fatalf("ParseList(%q) failed with %v, want ErrUnknownNetwork", list, err)
			}
			return
		}
		if want := strings.Count(list, ",") + 1; len(got) != want {
			t.Fatalf("ParseList(%q): %d instances, want %d", list, len(got), want)
		}
		seen := map[string]bool{}
		for i, in := range got {
			if in.Name == "" || seen[in.Name] {
				t.Fatalf("ParseList(%q)[%d]: empty or duplicate name %q", list, i, in.Name)
			}
			seen[in.Name] = true
			if row, err := Lookup(in.Network.Name); err != nil || row.Name != in.Network.Name {
				t.Fatalf("ParseList(%q)[%d]: network %q is not a table row", list, i, in.Network.Name)
			}
			if in.Seed != seed+uint64(i) {
				t.Fatalf("ParseList(%q)[%d]: seed %d, want %d", list, i, in.Seed, seed+uint64(i))
			}
		}
	})
}
