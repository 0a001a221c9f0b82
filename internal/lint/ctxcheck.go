package lint

import (
	"go/ast"
)

// ctxDirs are the packages whose exported entry points carry the
// layer-atomic cancellation contract from PR 2: long-running work
// checks its context and leaves each layer untouched or fully
// re-solved.
var ctxDirs = []string{
	"internal/core",
	"internal/fleet",
	"internal/gateway",
	"internal/obs",
	"internal/serve",
}

// requiredCtxEntry lists, per package directory, the exported entry
// points that must accept a context.Context (first parameter): the
// cancellation surface established by PR 2 (engine phases) and PR 3/4
// (serving). Renaming or de-contexting one of these is an API break the
// lint catches before the compiler's callers do.
var requiredCtxEntry = map[string][]string{
	"internal/core":  {"NewProtectorContext", "DetectContext", "RecoverContext", "SelfHealContext"},
	"internal/fleet": {"Predict", "PredictBatch", "StartGuard"},
}

// ctxcheckRule enforces the cancellation contract on core, serve,
// fleet, and gateway: every exported function that accepts a
// context.Context takes it as its first parameter and actually consults
// it in the body (a ctx accepted and ignored silently voids
// cancellation while the signature still promises it), and the
// designated entry points must accept one at all.
var ctxcheckRule = &Rule{
	Name: "ctxcheck",
	Doc:  "exported long-running entry points accept a context.Context first and consult it — the layer-atomic cancellation contract",
	run: func(t *Tree, r *reporter) {
		seen := map[string]map[string]bool{}
		firstFile := map[string]*File{}
		for _, f := range t.Files {
			if f.Test || !inDirs(f, ctxDirs...) {
				continue
			}
			if firstFile[f.Dir] == nil {
				firstFile[f.Dir] = f
			}
			for _, decl := range f.Ast.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || !fn.Name.IsExported() {
					continue
				}
				if seen[f.Dir] == nil {
					seen[f.Dir] = map[string]bool{}
				}
				idx, name := ctxParam(fn)
				if idx < 0 {
					continue
				}
				seen[f.Dir][fn.Name.Name] = true
				if idx != 0 {
					r.reportf(f, fn.Pos(),
						"%s takes context.Context as parameter %d — contexts come first", fn.Name.Name, idx+1)
				}
				switch {
				case name == "" || name == "_":
					r.reportf(f, fn.Pos(),
						"%s accepts a context.Context but discards it unnamed — cancellation is silently void", fn.Name.Name)
				case !identUsed(fn.Body, name):
					r.reportf(f, fn.Pos(),
						"%s accepts ctx but never consults it in the body — cancellation is silently void", fn.Name.Name)
				}
			}
		}
		for dir, names := range requiredCtxEntry {
			f := firstFile[dir]
			if f == nil {
				// Package absent from this tree (fixture run) — the
				// contract has nothing to bind to.
				continue
			}
			for _, name := range names {
				if !seen[dir][name] {
					r.reportf(f, f.Ast.Pos(),
						"package %s must export context entry point %s(ctx, ...) — the cancellation contract requires it", dir, name)
				}
			}
		}
	},
}

// ctxParam returns the index and name of the first parameter whose type
// is context.Context (or ...context.Context), or -1.
func ctxParam(fn *ast.FuncDecl) (int, string) {
	idx := 0
	for _, field := range fn.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(field.Type) {
			name := ""
			if len(field.Names) > 0 {
				name = field.Names[0].Name
			}
			return idx, name
		}
		idx += n
	}
	return -1, ""
}

func isContextType(expr ast.Expr) bool {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "context"
}

// identUsed reports whether an identifier with the given name appears
// anywhere in the body (closures included — handing ctx to a goroutine
// or helper counts as consulting it).
func identUsed(body *ast.BlockStmt, name string) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			used = true
			return false
		}
		return true
	})
	return used
}
