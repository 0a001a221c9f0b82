package milr_test

import (
	"go/ast"
	"go/token"
	"strings"
	"testing"

	"milr/internal/xmaps"
)

// Documentation lint, enforced in CI alongside go vet: every package in
// the module must carry a package-level godoc comment, and the public
// surface — the milr façade and the serving subsystem it re-exports —
// must document every exported symbol, so `go doc milr` reads as a
// reference rather than a symbol dump. See ISSUE/ARCHITECTURE history:
// package docs live in doc.go (or the command's main.go for cmd/*).
//
// The tree comes from lint.LoadModule, the same parse the invariant
// lint (lint_invariants_test.go) and the link lint walk.

// fullyDocumented lists the directories where every exported top-level
// declaration (and every exported method on an exported receiver) must
// have a doc comment, not just the package itself.
var fullyDocumented = map[string]bool{
	".":                true,
	"internal/serve":   true,
	"internal/fleet":   true,
	"internal/gateway": true,
	"internal/obs":     true,
	"internal/soak":    true,
}

// requiredExamples lists the runnable godoc examples the façade must
// carry (example_test.go): the self-heal loop, the fleet router, the
// guarded deployment (a protected model served and scrubbed by one
// fleet) and persistence across a restart — the stories a new user
// reaches first. They run — and their output is asserted — under
// `go test`, so the documented snippets cannot rot; this lint makes
// their presence mandatory rather than incidental.
var requiredExamples = []string{
	"ExampleProtector_SelfHealContext",
	"ExampleNewFleet",
	"ExampleFleet_RegisterProtected",
	"ExampleLoadProtector",
}

// TestFacadeExamplesPresent enforces requiredExamples: the façade's
// documentation examples are part of its public surface, like the doc
// comments TestDocCoverage checks.
func TestFacadeExamplesPresent(t *testing.T) {
	tree := loadTree(t)
	found := map[string]bool{}
	for _, f := range tree.Files {
		if f.Dir != "." || !f.Test {
			continue
		}
		for _, decl := range f.Ast.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example") {
				found[fn.Name.Name] = true
			}
		}
	}
	for _, name := range requiredExamples {
		if !found[name] {
			t.Errorf("façade example %s is missing — add it to example_test.go (runnable, with asserted output)", name)
		}
	}
}

func TestDocCoverage(t *testing.T) {
	tree := loadTree(t)
	pkgs := tree.PackageFiles()
	for _, dir := range xmaps.SortedKeys(pkgs) {
		files := pkgs[dir]
		hasPkgDoc := false
		for _, f := range files {
			if f.Ast.Doc != nil && strings.TrimSpace(f.Ast.Doc.Text()) != "" {
				hasPkgDoc = true
				break
			}
		}
		if !hasPkgDoc {
			t.Errorf("%s: package %s has no package-level doc comment (add a doc.go, or document the command in main.go)",
				dir, files[0].Ast.Name.Name)
		}
		if !fullyDocumented[dir] {
			continue
		}
		for _, f := range files {
			for _, decl := range f.Ast.Decls {
				checkDeclDocs(t, tree.Fset, decl)
			}
		}
	}
}

func checkDeclDocs(t *testing.T, fset *token.FileSet, decl ast.Decl) {
	t.Helper()
	switch d := decl.(type) {
	case *ast.FuncDecl:
		name := d.Name.Name
		if d.Recv != nil {
			recv := receiverName(d.Recv)
			if !ast.IsExported(recv) {
				return
			}
			name = recv + "." + name
		}
		if !d.Name.IsExported() {
			return
		}
		if d.Doc == nil {
			t.Errorf("%s: exported %s has no doc comment", fset.Position(d.Pos()), name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
					t.Errorf("%s: exported type %s has no doc comment", fset.Position(s.Pos()), s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, id := range s.Names {
					if id.IsExported() && d.Doc == nil && s.Doc == nil {
						t.Errorf("%s: exported %s has no doc comment", fset.Position(s.Pos()), id.Name)
					}
				}
			}
		}
	}
}
