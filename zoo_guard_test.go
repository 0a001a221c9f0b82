package milr_test

import (
	"go/ast"
	"strings"
	"testing"
)

// zooOwners are the only non-test places allowed to name a network
// constructor or set the §V-D cost policy: the constructors' home, the
// table, the façade's re-exports, and benchmark/, a module of its own
// with its own, frozen, map.
var zooOwners = []string{"internal/nn/", "internal/zoo/", "milr.go", "benchmark/"}

// TestZooIsTheOnlyNetworkTable keeps a second name→constructor table or
// a second copy of the cifar-large policy from growing back: everything
// else reaches a network through zoo.Lookup / zoo.ParseList and its
// policy through Network.Options or Network.MaxFullSolveTaps. A literal
// entry that copies the field from another value's MaxFullSolveTaps
// (internal/core's saved-blob options) passes the policy through and
// is not a copy of it.
func TestZooIsTheOnlyNetworkTable(t *testing.T) {
	constructors := map[string]bool{"NewMNISTNet": true, "NewCIFARSmallNet": true, "NewCIFARLargeNet": true, "NewTinyNet": true}
	isPolicy := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			return e.Sel.Name == "MaxFullSolveTaps"
		case *ast.Ident:
			return e.Name == "MaxFullSolveTaps"
		}
		return false
	}
	tree := loadTree(t)
files:
	for _, f := range tree.Files {
		if f.Test {
			continue
		}
		for _, owner := range zooOwners {
			if f.Path == owner || strings.HasPrefix(f.Path, owner) {
				continue files
			}
		}
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if constructors[n.Name] {
					t.Errorf("%s: names %s — look the network up in internal/zoo instead",
						tree.Fset.Position(n.Pos()), n.Name)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if isPolicy(lhs) {
						t.Errorf("%s: assigns MaxFullSolveTaps — the policy is a column of the internal/zoo table",
							tree.Fset.Position(lhs.Pos()))
					}
				}
			case *ast.KeyValueExpr:
				if _, copied := n.Value.(*ast.SelectorExpr); copied && isPolicy(n.Value) {
					return true
				}
				if isPolicy(n.Key) {
					t.Errorf("%s: sets MaxFullSolveTaps in a literal — the policy is a column of the internal/zoo table",
						tree.Fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
}
