package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// File is one parsed Go source file in the tree, addressed by its
// module-relative slash path so findings and allowlist entries are
// stable regardless of where the loader ran.
type File struct {
	// Path is the module-relative slash-separated path, e.g.
	// "internal/fleet/fleet.go".
	Path string
	// Dir is the module-relative directory ("." for the module root).
	Dir string
	// Test reports whether this is a _test.go file.
	Test bool
	// Ast is the parsed file, including comments.
	Ast *ast.File
}

// Tree is the whole module, parsed once: every Go file (tests
// included), plus the raw bytes of every top-level markdown document,
// so the invariant lints, the godoc lint, and the link lint all walk
// one shared parse instead of three.
type Tree struct {
	// Root is the absolute path of the module root (where go.mod
	// lives).
	Root string
	// Module is the module path declared in go.mod ("milr").
	Module string
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Files holds every parsed .go file in Path order.
	Files []*File
	// Docs maps module-relative markdown paths to their raw content.
	Docs map[string][]byte

	typesOnce sync.Once
	typesInfo *typeInfo
}

// Load parses the module rooted at root (the directory containing
// go.mod, or any directory when no go.mod is present — fixture trees).
// Directories named testdata, hidden directories, and .git are skipped,
// so rule fixtures never leak into a real lint run.
func Load(root string) (*Tree, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		Root:   abs,
		Module: modulePath(abs),
		Fset:   token.NewFileSet(),
		Docs:   map[string][]byte{},
	}
	err = filepath.WalkDir(abs, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(abs, path)
		if rerr != nil {
			return rerr
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "." {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(rel, ".go"):
			file, perr := parser.ParseFile(t.Fset, path, nil, parser.ParseComments)
			if perr != nil {
				return fmt.Errorf("lint: parse %s: %w", rel, perr)
			}
			dir := filepath.ToSlash(filepath.Dir(rel))
			t.Files = append(t.Files, &File{
				Path: rel,
				Dir:  dir,
				Test: strings.HasSuffix(rel, "_test.go"),
				Ast:  file,
			})
		case strings.HasSuffix(rel, ".md"):
			raw, rerr := os.ReadFile(path)
			if rerr != nil {
				return rerr
			}
			t.Docs[rel] = raw
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(t.Files, func(i, j int) bool { return t.Files[i].Path < t.Files[j].Path })
	return t, nil
}

// modulePath reads the module declaration out of root/go.mod, falling
// back to "milr" for synthetic fixture trees that carry no go.mod.
func modulePath(root string) string {
	raw, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "milr"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return "milr"
}

// FindModuleRoot walks upward from dir to the nearest directory
// containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

var (
	moduleCacheMu sync.Mutex
	moduleCache   = map[string]*Tree{}
	moduleCacheE  = map[string]error{}
)

// LoadModule locates the enclosing module from the current working
// directory and parses it once per process: repeated calls (the
// invariant lint, the godoc lint, and the link lint all run in one test
// binary) share the cached Tree.
func LoadModule() (*Tree, error) {
	root, err := FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	moduleCacheMu.Lock()
	defer moduleCacheMu.Unlock()
	if t, ok := moduleCache[root]; ok {
		return t, moduleCacheE[root]
	}
	t, err := Load(root)
	moduleCache[root], moduleCacheE[root] = t, err
	return t, err
}

// PackageFiles returns the non-test files of every directory, keyed by
// module-relative dir — the grouping both the godoc lint and the type
// checker need.
func (t *Tree) PackageFiles() map[string][]*File {
	pkgs := map[string][]*File{}
	for _, f := range t.Files {
		if f.Test {
			continue
		}
		pkgs[f.Dir] = append(pkgs[f.Dir], f)
	}
	return pkgs
}
