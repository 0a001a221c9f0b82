package milr_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"milr/internal/lint"
)

// CI name lint: `go test -run 'A|B'` passes silently when nothing
// matches, so a CI step whose tests were renamed or deleted keeps
// going green while testing nothing. Every alternative of every
// -run/-bench/-fuzz pattern in the files below must match a function
// of the right kind declared in the packages its command names.

// ciCommandFiles are the scripts whose `go test` lines are checked.
var ciCommandFiles = []string{".github/workflows/ci.yml", "bench.sh"}

// patternKinds maps each name-selecting flag to the function prefixes
// it selects.
var patternKinds = map[string][]string{
	"-run":   {"Test", "Example", "Fuzz"},
	"-bench": {"Benchmark"},
	"-fuzz":  {"Fuzz"},
}

// skipPattern is the deliberate no-match `-run XXX` that runs only
// benchmarks or fuzz targets.
const skipPattern = "XXX"

func TestCITestNamesExist(t *testing.T) {
	tree := loadTree(t)
	funcs := testFuncsByDir(tree)
	for _, file := range ciCommandFiles {
		raw, err := os.ReadFile(filepath.Join(tree.Root, filepath.FromSlash(file)))
		if err != nil {
			t.Fatal(err)
		}
		for ln, line := range strings.Split(string(raw), "\n") {
			_, cmd, ok := strings.Cut(line, "go test ")
			if !ok {
				continue
			}
			checkTestCommand(t, file, ln+1, shellFields(cmd), funcs)
		}
	}
}

// checkTestCommand checks one `go test` argument list: its packages
// are the arguments that start with ".", and each pattern alternative
// must match a function of the flag's kind in one of them.
func checkTestCommand(t *testing.T, file string, line int, args []string, funcs map[string][]string) {
	t.Helper()
	var dirs []string
	type pattern struct{ flag, value string }
	var patterns []pattern
	for i := 0; i < len(args); i++ {
		flag, value, hasValue := strings.Cut(args[i], "=")
		switch {
		case patternKinds[flag] != nil:
			if !hasValue {
				if i+1 == len(args) {
					t.Errorf("%s:%d: %s has no pattern", file, line, flag)
					return
				}
				i++
				value = args[i]
			}
			patterns = append(patterns, pattern{flag, value})
		case strings.HasPrefix(args[i], "."):
			dirs = append(dirs, args[i])
		}
	}
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	var names []string
	for _, d := range dirs {
		names = append(names, namesIn(funcs, d)...)
	}
	for _, p := range patterns {
		if p.flag == "-run" && p.value == skipPattern {
			continue
		}
		for _, alt := range expandAlternatives(p.value) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("%s:%d: %s %q: %v", file, line, p.flag, alt, err)
				continue
			}
			if !anyMatch(re, names, patternKinds[p.flag]) {
				t.Errorf("%s:%d: %s alternative %q matches no %s function in %v",
					file, line, p.flag, alt, strings.Join(patternKinds[p.flag], "/"), dirs)
			}
		}
	}
}

// testFuncsByDir lists the top-level Test/Benchmark/Fuzz/Example
// functions of every test file, keyed by module-relative directory.
func testFuncsByDir(tree *lint.Tree) map[string][]string {
	out := map[string][]string{}
	for _, f := range tree.Files {
		if !f.Test {
			continue
		}
		for _, decl := range f.Ast.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				out[f.Dir] = append(out[f.Dir], fn.Name.Name)
			}
		}
	}
	return out
}

// namesIn returns the functions of the package a `go test` argument
// names: "." or "./dir".
func namesIn(funcs map[string][]string, arg string) []string {
	if dir := strings.TrimPrefix(arg, "./"); dir != arg {
		return funcs[dir]
	}
	return funcs[arg]
}

func anyMatch(re *regexp.Regexp, names, prefixes []string) bool {
	for _, n := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(n, p) && re.MatchString(n) {
				return true
			}
		}
	}
	return false
}

// expandAlternatives rewrites a pattern into alternation-free
// patterns, one per alternative: "A|B(c|d)$" becomes "A", "B(c)$" and
// "B(d)$", so every alternative is checked on its own.
func expandAlternatives(p string) []string {
	if parts := splitTopLevel(p); len(parts) > 1 {
		var out []string
		for _, part := range parts {
			out = append(out, expandAlternatives(part)...)
		}
		return out
	}
	open := strings.IndexByte(p, '(')
	if open < 0 {
		return []string{p}
	}
	depth, end := 0, -1
	for i := open; i < len(p) && end < 0; i++ {
		switch p[i] {
		case '(':
			depth++
		case ')':
			if depth--; depth == 0 {
				end = i
			}
		}
	}
	if end < 0 {
		return []string{p} // unbalanced: regexp.Compile reports it
	}
	var out []string
	for _, inner := range expandAlternatives(p[open+1 : end]) {
		for _, tail := range expandAlternatives(p[end+1:]) {
			out = append(out, p[:open]+"("+inner+")"+tail)
		}
	}
	return out
}

// splitTopLevel splits p on the '|' characters outside parentheses.
func splitTopLevel(p string) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				parts = append(parts, p[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, p[start:])
}

// shellFields splits a shell command line into words, honouring single
// and double quotes, and stops at the first unquoted pipe, list
// operator, redirection or comment.
func shellFields(s string) []string {
	var out []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				out = append(out, cur.String())
				cur.Reset()
				inWord = false
			}
		case strings.ContainsRune("|;&<>#", r):
			if inWord {
				out = append(out, cur.String())
			}
			return out
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		out = append(out, cur.String())
	}
	return out
}
