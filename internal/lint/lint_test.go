package lint

import (
	"flag"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<rule>/bad.golden from current output")

// fixtureSpec places each rule's fixtures at virtual module-relative
// paths inside the rule's scope: the bad fixture must trip the rule,
// the good fixture must not. A rule without an entry here fails
// TestRuleGoldens — every analyzer ships with golden diagnostics.
var fixtureSpec = map[string]struct{ bad, good string }{
	"nakedgo":    {bad: "internal/gateway/fixture.go", good: "internal/par/fixture.go"},
	"detrand":    {bad: "internal/bench/fixture/fixture.go", good: "internal/bench/fixture/fixture.go"},
	"syncgate":   {bad: "examples/demo/fixture.go", good: "examples/demo/fixture.go"},
	"ctxcheck":   {bad: "internal/fleet/fixture.go", good: "internal/fleet/fixture.go"},
	"errwrap":    {bad: "internal/gateway/fixture.go", good: "internal/gateway/fixture.go"},
	"gemmbudget": {bad: "internal/serve/fixture.go", good: "internal/serve/fixture.go"},
}

// fixtureTree parses one fixture file into a synthetic single-file
// tree, addressed by the virtual path that lands it in the rule's
// scope. The loader skips testdata directories, so these files are
// reachable only through this constructor, never through a real run.
func fixtureTree(t *testing.T, rule, name, virtual string) *Tree {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", rule, name))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, virtual, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("fixture %s/%s: %v", rule, name, err)
	}
	return &Tree{
		Root:   "fixture://" + rule,
		Module: "milr",
		Fset:   fset,
		Files: []*File{{
			Path: virtual,
			Dir:  path.Dir(virtual),
			Ast:  f,
		}},
		Docs: map[string][]byte{},
	}
}

// runRuleRaw applies one rule with no allowlist, sorted the way
// RunDetailed sorts — goldens record raw diagnostics.
func runRuleRaw(t *testing.T, tree *Tree, name string) []Finding {
	t.Helper()
	rule, ok := RuleByName(name)
	if !ok {
		t.Fatalf("unknown rule %q", name)
	}
	r := &reporter{tree: tree, rule: name}
	rule.run(tree, r)
	sort.Slice(r.out, func(i, j int) bool {
		a, b := r.out[i], r.out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return r.out
}

// TestRuleGoldens pins each rule's diagnostics: the bad fixture must
// reproduce testdata/<rule>/bad.golden exactly (run with -update to
// regenerate after changing a message), and the good fixture must come
// back clean.
func TestRuleGoldens(t *testing.T) {
	for _, rule := range Rules() {
		spec, ok := fixtureSpec[rule.Name]
		if !ok {
			t.Errorf("rule %s has no fixtures — add testdata/%s/{bad.go,good.go,bad.golden} and a fixtureSpec entry", rule.Name, rule.Name)
			continue
		}
		t.Run(rule.Name, func(t *testing.T) {
			findings := runRuleRaw(t, fixtureTree(t, rule.Name, "bad.go", spec.bad), rule.Name)
			if len(findings) == 0 {
				t.Fatalf("bad fixture produced no findings — the rule is not firing")
			}
			var got strings.Builder
			for _, f := range findings {
				got.WriteString(f.String())
				got.WriteByte('\n')
			}
			golden := filepath.Join("testdata", rule.Name, "bad.golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got.String() != string(want) {
				t.Errorf("diagnostics diverge from %s (re-run with -update if intended)\n--- got ---\n%s--- want ---\n%s", golden, got.String(), want)
			}

			if clean := runRuleRaw(t, fixtureTree(t, rule.Name, "good.go", spec.good), rule.Name); len(clean) != 0 {
				t.Errorf("good fixture produced findings:\n%v", clean)
			}
		})
	}
}

// TestRulesSortedAndUnique pins the Rules() contract the CLI's -list
// and -rules flags rely on.
func TestRulesSortedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	prev := ""
	for _, r := range Rules() {
		if r.Name <= prev {
			t.Errorf("Rules() not strictly sorted: %q after %q", r.Name, prev)
		}
		if seen[r.Name] {
			t.Errorf("duplicate rule name %q", r.Name)
		}
		if r.Doc == "" {
			t.Errorf("rule %q has no Doc line", r.Name)
		}
		seen[r.Name] = true
		prev = r.Name
	}
	if _, ok := RuleByName("no-such-rule"); ok {
		t.Error("RuleByName resolved a rule that does not exist")
	}
}

// TestExceptionMatching pins allowlist path semantics: exact file
// match, directory-prefix match for entries ending in "/", and no
// accidental substring matches.
func TestExceptionMatching(t *testing.T) {
	cases := []struct {
		f    Finding
		want bool
	}{
		{Finding{Rule: "nakedgo", File: "internal/fleet/fleet.go"}, true},
		{Finding{Rule: "nakedgo", File: "internal/fleet/fleet_test.go"}, false},
		{Finding{Rule: "syncgate", File: "internal/bench/cache.go"}, true},
		{Finding{Rule: "syncgate", File: "internal/benchmark/x.go"}, false},
		{Finding{Rule: "detrand", File: "internal/fleet/fleet.go"}, false},
	}
	for _, c := range cases {
		if _, ok := matchException(c.f); ok != c.want {
			t.Errorf("matchException(%s %s) = %v, want %v", c.f.Rule, c.f.File, ok, c.want)
		}
	}
}

// TestAllowlistEntriesJustified keeps the allowlist honest at the
// source level: every entry names a rule that exists and carries a
// non-trivial justification.
func TestAllowlistEntriesJustified(t *testing.T) {
	for _, e := range exceptions {
		if _, ok := RuleByName(e.Rule); !ok {
			t.Errorf("allowlist entry for unknown rule %q", e.Rule)
		}
		if len(strings.TrimSpace(e.Why)) < 20 {
			t.Errorf("allowlist entry {%s %s} has no real justification: %q", e.Rule, e.Path, e.Why)
		}
		if e.Path == "" || strings.HasPrefix(e.Path, "/") {
			t.Errorf("allowlist entry {%s %s}: paths are module-relative", e.Rule, e.Path)
		}
	}
}
