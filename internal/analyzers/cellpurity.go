// cellpurity: RunCell must not write package-level state.
//
// The executor's contract is that RunCell is pure — it may build
// anything it likes, but its writes stay cell-local, so any worker
// count, fleet or cell order computes the same grid. An
// assignment to a package-level variable from a RunCell body, or from
// any function it reaches through the statically resolvable call graph
// (the one nondeterm walks, in every analyzed package), couples cells
// through hidden state: results then depend on execution order, which
// the memo, the store and its ingest all assume away. Deliberate
// deterministic caches (compute-once reference data guarded by a
// mutex) are the sanctioned exception — annotate them with an
// fp8vet:ignore stating why order cannot matter.

package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
)

func cellpurityAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "cellpurity",
		Doc:  "RunCell bodies and every function they reach must not assign package-level variables",
		Run:  runCellpurity,
	}
}

func runCellpurity(pkgs []*Package) []Finding {
	g := buildGraph(pkgs)
	audit := reachableFrom(g, cellRoots(g, pkgs))

	var out []Finding
	eachAudited(g, audit, func(fn *graphFunc, chain []string, n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if obj, name := pkgLevelTarget(fn.pkg, lhs); obj != nil {
					out = append(out, pureFinding(fn.pkg, n, name, chain))
				}
			}
		case *ast.IncDecStmt:
			if obj, name := pkgLevelTarget(fn.pkg, n.X); obj != nil {
				out = append(out, pureFinding(fn.pkg, n, name, chain))
			}
		}
	})
	return out
}

func pureFinding(p *Package, n ast.Node, name string, chain []string) Finding {
	msg := fmt.Sprintf("package-level variable %q assigned on a RunCell path", name)
	if len(chain) > 1 {
		msg += fmt.Sprintf(" (via %s)", chainString(chain))
	}
	return Finding{Check: "cellpurity", Pos: position(p, n), Message: msg}
}

// pkgLevelTarget resolves an assignment target to a package-level
// variable, seeing through index and selector chains to the base
// identifier: `memo[k] = v`, `cfg.Field = v` and `cfg = v` all write
// package state when their base is a package-level var. The blank
// identifier never does.
func pkgLevelTarget(p *Package, lhs ast.Expr) (types.Object, string) {
	e := unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = unparen(x.X)
		case *ast.SelectorExpr:
			// A selector may be pkgvar.Field (base below) or
			// otherpkg.Var (resolved here).
			if id, ok := unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := p.Info.ObjectOf(id).(*types.PkgName); isPkg {
					e = x.Sel
					continue
				}
			}
			e = unparen(x.X)
		case *ast.StarExpr:
			e = unparen(x.X)
		case *ast.Ident:
			if x.Name == "_" {
				return nil, ""
			}
			obj := p.Info.ObjectOf(x)
			v, ok := obj.(*types.Var)
			if !ok || v.IsField() {
				return nil, ""
			}
			// Package-level: the variable's parent scope is its
			// package scope.
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v, x.Name
			}
			return nil, ""
		default:
			return nil, ""
		}
	}
}
