// A small static call graph over the analyzed package set, shared by
// the nondeterm and cellpurity checks. Edges are the statically
// resolvable calls (direct function and method calls); calls through
// function values and interface dispatch are not traversed — kernel
// and codec functions are analysis roots in their own right, so the
// paths that matter to the bit-identity contract stay covered even
// where dynamic dispatch cuts an edge.

package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// graphFunc is one declared function in the analyzed set, or a
// function literal a cell root resolves to (decl nil).
type graphFunc struct {
	pkg  *Package
	decl *ast.FuncDecl
	body *ast.BlockStmt
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
		fn := newGraphFunc(p, d.Body, declKey(p, d))
		fn.decl = d
		g[fn.key] = fn
	})
	return g
}

// newGraphFunc indexes the resolvable calls of one function body.
func newGraphFunc(p *Package, body *ast.BlockStmt, key string) *graphFunc {
	fn := &graphFunc{pkg: p, body: body, key: key}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f := calleeFunc(p.Info, call); f != nil {
			fn.callees = append(fn.callees, calledEdge{key: funcKey(f), call: call})
		}
		return true
	})
	return fn
}

// cellRoots returns, from the set's call graph g, every RunCell
// implementation: methods named RunCell, plus what is passed as the
// cell argument (4th positional) to a registerGrid call — the
// project's experiment-registration idiom routes the executor's
// RunCell through those. A cell argument is a declared function, or a
// function literal: given inline, or held by a variable whose
// initializer is a literal or a helper call returning one (cellLits).
// Each such literal joins g as a node of its own.
func cellRoots(g map[string]*graphFunc, pkgs []*Package) map[string]*graphFunc {
	roots := map[string]*graphFunc{}
	for key, fn := range g {
		if fn.decl != nil && fn.decl.Recv != nil && fn.decl.Name.Name == "RunCell" {
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
						return true
					}
				}
				for _, lit := range cellLits(g, pkgs, p, call.Args[3], 0, 0) {
					if _, ok := g[lit.key]; !ok {
						g[lit.key] = newGraphFunc(lit.pkg, lit.lit.Body, lit.key)
					}
					roots[lit.key] = g[lit.key]
				}
				return true
			})
		}
	}
	return roots
}

// litRef is a function literal with its package and graph key.
type litRef struct {
	pkg *Package
	lit *ast.FuncLit
	key string
}

// maxCellHops bounds how many variables and helper calls cellLits
// follows from a cell argument to a literal.
const maxCellHops = 4

// cellLits resolves e, an expression of package p (its idx-th value
// when e yields several), to the function literals it evaluates to: a
// literal itself; through a variable, its initializer; through a call
// of a declared function, that value of each of its return statements.
// Anything else — a parameter, a reassigned variable's later value, a
// call through a function value — resolves to nothing.
func cellLits(g map[string]*graphFunc, pkgs []*Package, p *Package, e ast.Expr, idx, hops int) []litRef {
	if hops > maxCellHops {
		return nil
	}
	switch x := unparen(e).(type) {
	case *ast.FuncLit:
		if idx == 0 {
			return []litRef{{pkg: p, lit: x, key: litKey(p, x)}}
		}
	case *ast.Ident:
		v, ok := p.Info.Uses[x].(*types.Var)
		if !ok {
			return nil
		}
		if dp := packageOf(pkgs, v); dp != nil {
			if init, i := varInit(dp, v); init != nil {
				return cellLits(g, pkgs, dp, init, i, hops+1)
			}
		}
	case *ast.CallExpr:
		fn, ok := g[funcKey(calleeFunc(p.Info, x))]
		if !ok || fn.decl == nil {
			return nil
		}
		var out []litRef
		ast.Inspect(fn.body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // its returns are its own
			case *ast.ReturnStmt:
				if len(n.Results) == 1 {
					// One value, or a call whose values pass through.
					out = append(out, cellLits(g, pkgs, fn.pkg, n.Results[0], idx, hops+1)...)
				} else if idx < len(n.Results) {
					out = append(out, cellLits(g, pkgs, fn.pkg, n.Results[idx], 0, hops+1)...)
				}
			}
			return true
		})
		return out
	}
	return nil
}

// packageOf returns the loaded package that declares obj.
func packageOf(pkgs []*Package, obj types.Object) *Package {
	for _, p := range pkgs {
		if p.Types == obj.Pkg() {
			return p
		}
	}
	return nil
}

// varInit finds v's initializer in p: the expression a := or var
// declaration gives it, and which value of that expression v takes (a
// multi-value call assigns its idx-th result).
func varInit(p *Package, v *types.Var) (ast.Expr, int) {
	var init ast.Expr
	idx := 0
	match := func(names []*ast.Ident, values []ast.Expr) {
		for i, id := range names {
			if p.Info.Defs[id] != v {
				continue
			}
			switch {
			case len(values) == len(names):
				init, idx = values[i], 0
			case len(values) == 1:
				init, idx = values[0], i
			}
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					names := make([]*ast.Ident, len(n.Lhs))
					for i, l := range n.Lhs {
						names[i], _ = l.(*ast.Ident)
					}
					match(names, n.Rhs)
				}
			case *ast.ValueSpec:
				match(n.Names, n.Values)
			}
			return init == nil
		})
	}
	return init, idx
}

// litKey names a function literal in the call graph after the function
// declaration that contains it and its ordinal among that
// declaration's literals in source order: "pkgpath.recipeGrid.func2"
// is the second literal in recipeGrid. A literal outside any
// declaration (a package-level initializer) is named after its line.
func litKey(p *Package, lit *ast.FuncLit) string {
	for _, f := range p.Files {
		if lit.Pos() < f.Pos() || lit.Pos() >= f.End() {
			continue
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || lit.Pos() < d.Pos() || lit.Pos() >= d.End() {
				continue
			}
			n := 0
			ast.Inspect(d, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok && m.Pos() <= lit.Pos() {
					n++
				}
				return true
			})
			return fmt.Sprintf("%s.func%d", declKey(p, d), n)
		}
	}
	return fmt.Sprintf("%s.func@%d", p.Path, p.Fset.Position(lit.Pos()).Line)
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

// eachAudited visits each node of the body of every function in chains
// (in key order) with that function and its chain from a root. A node
// is visited once, so a literal root inside a function that is also
// audited is reported once.
func eachAudited(g map[string]*graphFunc, chains map[string][]string, visit func(fn *graphFunc, chain []string, n ast.Node)) {
	seen := map[ast.Node]bool{}
	for _, key := range sortedKeys(chains) {
		fn := g[key]
		if fn == nil {
			continue
		}
		ast.Inspect(fn.body, func(n ast.Node) bool {
			if n == nil || seen[n] {
				return false
			}
			seen[n] = true
			visit(fn, chains[key], n)
			return true
		})
	}
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
