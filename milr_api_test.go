package milr_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// API-surface regression: the exported identifiers of the milr façade
// are pinned to a golden list so a future change cannot silently add,
// rename, or drop public API. Methods are listed as Type.Method for
// exported receiver types declared in this package. Update the list
// deliberately, in the same commit as the API change it blesses.
var goldenAPI = []string{
	// Runtime and functional options.
	"NewRuntime",
	"Option",
	"Runtime",
	"Runtime.BatchSize",
	"Runtime.Evaluate",
	"Runtime.Options",
	"Runtime.Protect",
	"Runtime.Seed",
	"Runtime.With",
	"Runtime.Workers",
	"WithBatchSize",
	"WithMaxBatchDelay",
	"WithMaxFullSolveTaps",
	"WithSeed",
	"WithWorkers",
	// Serving: multi-model routing over a shared worker budget, with
	// batch coalescing, admission control and the fleet guard.
	"DefaultMaxBatchDelay",
	"ErrFleetClosed",
	"ErrQueueFull",
	"Fleet",
	"Fleet.Close",
	"Fleet.Predict",
	"Fleet.PredictBatch",
	"Fleet.Register",
	"Fleet.RegisterProtected",
	"Fleet.ScrubOnce",
	"Fleet.StartGuard",
	"Fleet.Stats",
	"ScrubResult",
	"FleetStats",
	"ModelOption",
	// Gateway support (PR 6): typed admission errors and the model
	// index the HTTP gateway maps onto status codes and payloads.
	"ErrUnknownModel",
	"Fleet.Models",
	"ModelInfo",
	"QueueFullError",
	"ModelStats",
	"NewFleet",
	"WithDefaultDeadline",
	"WithModelQueueCap",
	"WithModelWeight",
	"WithQueueCap",
	// Elasticity (PR 10): rolling model swaps under live traffic.
	"Fleet.Replace",
	"Fleet.ReplaceProtected",
	"Fleet.Unregister",
	// Re-exported engine types.
	"DetectionReport",
	"Layer",
	"LayerPlanInfo",
	"Model",
	"Options",
	"Parameterized",
	"Protector",
	"RecoveryReport",
	"Sample",
	"Shape",
	"StorageReport",
	"Tensor",
	// Recovery statuses.
	"Approximate",
	"Failed",
	"Recovered",
	// Network constructors.
	"NewCIFARLargeNet",
	"NewCIFARSmallNet",
	"NewMNISTNet",
	"NewTinyNet",
	// Persistence, tensors, training.
	"ErrBlobVersion",
	"ErrNonFiniteWeight",
	"LoadProtector",
	"NewTensor",
	"SaveProtector",
	"TensorFromSlice",
	"Train",
	"TrainConfig",
}

func TestAPISurfaceGolden(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["milr"]
	if !ok {
		t.Fatalf("package milr not found in cwd (got %v)", pkgs)
	}
	got := map[string]bool{}
	for name, file := range pkg.Files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					got[d.Name.Name] = true
					continue
				}
				if recv := receiverName(d.Recv); recv != "" && ast.IsExported(recv) {
					got[recv+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							got[s.Name.Name] = true
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								got[id.Name] = true
							}
						}
					}
				}
			}
		}
	}
	want := map[string]bool{}
	for _, id := range goldenAPI {
		want[id] = true
	}
	var missing, extra []string
	for id := range want {
		if !got[id] {
			missing = append(missing, id)
		}
	}
	for id := range got {
		if !want[id] {
			extra = append(extra, id)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 {
		t.Errorf("exported identifiers removed from the façade (deliberate API break? update goldenAPI):\n  %s",
			strings.Join(missing, "\n  "))
	}
	if len(extra) > 0 {
		t.Errorf("new exported identifiers not in the golden list (add them deliberately):\n  %s",
			strings.Join(extra, "\n  "))
	}
}

func receiverName(fields *ast.FieldList) string {
	if fields == nil || len(fields.List) == 0 {
		return ""
	}
	expr := fields.List[0].Type
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return fmt.Sprintf("%T", expr)
}
