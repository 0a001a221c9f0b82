package lint

import (
	"go/ast"
)

// gemmbudgetDirs are the packages allowed to invoke the GEMM/im2col
// kernels directly: the layers and solve paths whose every invocation
// is what the tensor.GEMMCalls counter pins (one GEMM per layer per
// batch, the recovery segment budget), plus the kernel packages
// themselves.
var gemmbudgetDirs = []string{
	"internal/core",
	"internal/linalg",
	"internal/nn",
	"internal/tensor",
}

// gemmKernels are the tensor entry points that count as kernel
// invocations. tensor.GEMMCalls (the counter read) is deliberately
// absent: reading the budget is how tests enforce it.
var gemmKernels = map[string]bool{
	"MatMul":        true,
	"MatMulWorkers": true,
	"MatMulInto":    true,
	"ConvInto":      true,
	"Im2Col":        true,
}

// gemmbudgetRule enforces the kernel-accounting contract: every batched
// claim in this repository (≤1 GEMM per layer per ForwardBatch, the
// recovery segment budget) is pinned by counting kernel calls, so the
// kernels may only be reached through internal/nn layer ops and
// internal/core solve paths. A direct tensor.MatMul from serving or
// bench code would do unaccounted work the counters never see.
var gemmbudgetRule = &Rule{
	Name: "gemmbudget",
	Doc:  "GEMM/im2col kernels are called only from internal/nn and internal/core — tensor.GEMMCalls accounting cannot be bypassed",
	run: func(t *Tree, r *reporter) {
		for _, f := range t.Files {
			if inDirs(f, gemmbudgetDirs...) {
				continue
			}
			tensorName := importName(f, "internal/tensor")
			linalgName := importName(f, "internal/linalg")
			if tensorName == "" && linalgName == "" {
				continue
			}
			ast.Inspect(f.Ast, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == tensorName && gemmKernels[sel.Sel.Name] {
					r.reportf(f, call.Pos(),
						"direct tensor.%s call outside internal/nn+core bypasses tensor.GEMMCalls accounting — go through the layer ops", sel.Sel.Name)
					return true
				}
				if linalgName != "" && sel.Sel.Name == "Mul" {
					// Matrix.Mul is a method call, so the receiver is
					// not the package ident; gate on the file importing
					// internal/linalg at all, which outside the engine
					// it has no other reason to do.
					r.reportf(f, call.Pos(),
						"direct linalg matrix multiply outside internal/nn+core bypasses kernel accounting — go through the layer ops")
				}
				return true
			})
		}
	},
}
