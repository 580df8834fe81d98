// A small static call graph over the analyzed package set, shared by
// the nondeterm and cellpurity checks. Edges are the statically
// resolvable calls (direct function and method calls); calls through
// function values and interface dispatch are not traversed — kernel
// and codec functions are analysis roots in their own right, so the
// paths that matter to the bit-identity contract stay covered even
// where dynamic dispatch cuts an edge.

package analyzers

import (
	"go/ast"
	"go/types"
	"sort"
)

// graphFunc is one declared function in the analyzed set.
type graphFunc struct {
	pkg  *Package
	decl *ast.FuncDecl
	key  string
	// callees are the funcKeys of statically resolved calls in the
	// body, in source order, first occurrence position retained for
	// reporting.
	callees []calledEdge
}

type calledEdge struct {
	key  string
	call *ast.CallExpr
}

// buildGraph indexes every declared function and its resolvable call
// edges.
func buildGraph(pkgs []*Package) map[string]*graphFunc {
	g := map[string]*graphFunc{}
	eachFuncDecl(pkgs, func(p *Package, d *ast.FuncDecl) {
		fn := &graphFunc{pkg: p, decl: d, key: declKey(p, d)}
		ast.Inspect(d.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if f := calleeFunc(p.Info, call); f != nil {
				fn.callees = append(fn.callees, calledEdge{key: funcKey(f), call: call})
			}
			return true
		})
		g[fn.key] = fn
	})
	return g
}

// cellRoots returns, from the set's call graph g, every RunCell
// implementation: methods named RunCell, plus any function passed as the
// cell argument (4th positional) to a registerGrid call — the
// project's experiment-registration idiom routes the executor's
// RunCell through those.
func cellRoots(g map[string]*graphFunc, pkgs []*Package) map[string]*graphFunc {
	roots := map[string]*graphFunc{}
	for key, fn := range g {
		if fn.decl.Recv != nil && fn.decl.Name.Name == "RunCell" {
			roots[key] = fn
		}
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := unparen(call.Fun).(*ast.Ident)
				if !ok || id.Name != "registerGrid" || len(call.Args) < 4 {
					return true
				}
				if cellID, ok := unparen(call.Args[3]).(*ast.Ident); ok {
					if obj, ok := p.Info.Uses[cellID].(*types.Func); ok {
						if fn, ok := g[funcKey(obj)]; ok {
							roots[fn.key] = fn
						}
					}
				}
				return true
			})
		}
	}
	return roots
}

// reachableFrom walks the call graph from the given roots and returns,
// for every reachable function key, a shortest call chain of function
// keys from a root to it (the root itself maps to a 1-element chain).
// Roots seed the queue in sorted order so the chain chosen for a
// function reachable from several roots is the same on every run —
// map-order seeding would make the "via" part of findings flap.
func reachableFrom(g map[string]*graphFunc, roots map[string]*graphFunc) map[string][]string {
	chains := map[string][]string{}
	queue := sortedKeys(roots)
	for _, key := range queue {
		chains[key] = []string{key}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		fn, ok := g[cur]
		if !ok {
			continue
		}
		for _, e := range fn.callees {
			if _, seen := chains[e.key]; seen {
				continue
			}
			if _, declared := g[e.key]; !declared {
				continue // outside the analyzed set (stdlib etc.)
			}
			chains[e.key] = append(append([]string{}, chains[cur]...), e.key)
			queue = append(queue, e.key)
		}
	}
	return chains
}

// sortedKeys returns the map's keys in ascending order — the suite's
// own map iterations go through it so fp8vet passes its own mapiter
// check by construction.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// shortName trims the package path off a funcKey for messages.
func shortName(key string) string {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '/' {
			return key[i+1:]
		}
	}
	return key
}

// chainString renders a call chain as "a → b → c" using short names.
func chainString(chain []string) string {
	out := ""
	for i, k := range chain {
		if i > 0 {
			out += " → "
		}
		out += shortName(k)
	}
	return out
}
