package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"milr"
	"milr/internal/core"
	"milr/internal/zoo"
)

// TestPlanParityWithInspect pins the daemon's protection plan to the
// one milr-inspect prints (and milr-soak and milr-bench run): for every
// zoo network, fleetAdmin.protect and core.NewProtector under the zoo
// row's options must plan the same checkpoints and solvers. At the
// parent commit the daemon planned cifar-large without the §V-D policy.
func TestPlanParityWithInspect(t *testing.T) {
	const seed = 42
	admin := &fleetAdmin{rt: milr.NewRuntime(milr.WithSeed(seed))}
	every, err := zoo.ParseList(zoo.Names(), seed)
	if err != nil || len(every) < 4 {
		t.Fatalf("ParseList(Names()) = %d networks, %v", len(every), err)
	}
	for _, in := range every {
		net := in.Network
		served, err := net.Build(seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := admin.protect(context.Background(), net, served)
		if err != nil {
			t.Fatalf("%s: daemon protect: %v", net.Name, err)
		}
		inspected, err := net.Build(seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.NewProtector(inspected, net.Options(seed))
		if err != nil {
			t.Fatalf("%s: inspect protect: %v", net.Name, err)
		}
		if !reflect.DeepEqual(got.PlanInfo(), want.PlanInfo()) {
			t.Errorf("%s: the daemon's plan differs from milr-inspect's\ndaemon:  %+v\ninspect: %+v",
				net.Name, got.PlanInfo(), want.PlanInfo())
		}
		if !reflect.DeepEqual(got.Boundaries(), want.Boundaries()) {
			t.Errorf("%s: checkpoint boundaries %v, milr-inspect has %v", net.Name, got.Boundaries(), want.Boundaries())
		}
	}
}

// TestBootRejectsBadConfig: boot is as strict as a SIGHUP reload — a
// model set that does not validate makes run return an error before the
// listener opens, instead of serving a partial fleet.
func TestBootRejectsBadConfig(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := map[string][]string{
		"unknown network in -models": {"-models", "tiny,resnet"},
		"empty -models entry":        {"-models", "tiny,"},
		"missing config file":        {"-models-config", filepath.Join(dir, "absent.json")},
		"unknown network in config":  {"-models-config", write("net.json", `{"models":[{"name":"a","network":"tiny"},{"name":"b","network":"resnet"}]}`)},
		"duplicate name in config":   {"-models-config", write("dup.json", `{"models":[{"name":"a","network":"tiny"},{"name":"a","network":"mnist"}]}`)},
		"unknown field in config":    {"-models-config", write("field.json", `{"models":[{"name":"a","network":"tiny","replicas":2}]}`)},
		"empty config":               {"-models-config", write("empty.json", `{"models":[]}`)},
		"second document in config": {"-models-config", write("two.json",
			`{"models":[{"name":"a","network":"tiny"}]}`+"\n"+`{"models":[{"name":"b","network":"nosuchnet"}]}`)},
	}
	for name, args := range cases {
		ctx, cancel := context.WithCancel(context.Background())
		ready, opened := make(chan string, 1), make(chan string, 1)
		go func() {
			select {
			case addr := <-ready:
				// A boot that wrongly succeeded shuts down instead of
				// serving until the test binary times out.
				opened <- addr
				cancel()
			case <-ctx.Done():
			}
		}()
		err := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), ready)
		cancel()
		if err == nil {
			t.Errorf("%s: run returned nil", name)
		}
		select {
		case addr := <-opened:
			t.Errorf("%s: the listener opened on %s", name, addr)
		default:
		}
	}
}

// FuzzModelsConfig: no models-config document panics the parser, and
// one it accepts names every model uniquely and non-emptily over zoo
// networks only — what Apply needs to register the whole file.
func FuzzModelsConfig(f *testing.F) {
	for _, s := range []string{
		`{"models":[{"name":"alpha","network":"tiny","seed":1}]}`,
		`{"models":[{"name":"beta","network":"tiny","seed":2,"weight":2}]}`,
		`{"models":[{"name":"tiny","network":"tiny","seed":42,"weight":1,"queue_cap":64},{"name":"m","network":"mnist"}]}`,
		`{"models":[{"name":"a","network":"resnet"}]}`,
		`{"models":[{"name":"","network":"tiny"}]}`,
		`{"models":[]}`,
		`{"models":null}`,
		`[]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		specs, err := parseModelsConfig(raw)
		if err != nil {
			return
		}
		if len(specs) == 0 {
			t.Fatalf("accepted a file with no models: %q", raw)
		}
		seen := map[string]bool{}
		for _, s := range specs {
			if s.Name == "" || seen[s.Name] {
				t.Fatalf("accepted an empty or duplicate name %q: %q", s.Name, raw)
			}
			seen[s.Name] = true
			if _, err := zoo.Lookup(s.Network); err != nil {
				t.Fatalf("accepted network %q: %v", s.Network, err)
			}
		}
	})
}

// TestModelsConfigErrorsKeepTheirCause: the path prefix loadModelsConfig
// adds must not hide the typed cause reload and boot callers match.
func TestModelsConfigErrorsKeepTheirCause(t *testing.T) {
	path := filepath.Join(t.TempDir(), "models.json")
	if err := os.WriteFile(path, []byte(`{"models":[{"name":"a","network":"resnet"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadModelsConfig(path); !errors.Is(err, zoo.ErrUnknownNetwork) {
		t.Errorf("loadModelsConfig err = %v, want zoo.ErrUnknownNetwork", err)
	}
}
