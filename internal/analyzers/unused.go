// unused: every internal/ function has a non-test caller.
//
// A code path stays only if something uses it. A function in an
// internal/ package that only its tests reach is dead weight: it is
// compiled, documented, vetted and kept bit-identical, yet no report,
// store cell or command depends on it. Since fp8vet loads no test
// files, the check is one pass: collect every reference to a function
// or method from the loaded (non-test) code of the module, and flag
// each internal/ declaration nothing references, other than its own
// body. A method is kept when its name is a method of some interface
// the module can see — one declared or used in the module, or declared
// in a package it imports (fmt.Stringer's String, json.Marshaler's
// MarshalJSON) — because interface dispatch leaves no static
// reference. A deliberate keep, such as API that only another module's
// tests call, carries //fp8vet:ignore unused <caller>.

package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

func unusedAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "unused",
		Doc:  "internal/ functions and methods must be referenced by non-test code",
		Run:  runUnused,
	}
}

func runUnused(pkgs []*Package) []Finding {
	used := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				self := ""
				if d, ok := decl.(*ast.FuncDecl); ok {
					self = declKey(p, d)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := p.Info.Uses[id].(*types.Func); ok {
						if k := funcKey(fn.Origin()); k != self {
							used[k] = true
						}
					}
					return true
				})
			}
		}
	}
	dispatched := interfaceMethodNames(pkgs)

	var out []Finding
	for _, p := range pkgs {
		if !internalPackage(p) {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Name.Name == "init" || d.Name.Name == "_" || used[declKey(p, d)] {
					continue
				}
				what := "function " + d.Name.Name
				if d.Recv != nil && len(d.Recv.List) > 0 {
					if dispatched[d.Name.Name] {
						continue
					}
					what = "method " + astRecvName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				out = append(out, Finding{Check: "unused", Pos: position(p, d.Name),
					Message: fmt.Sprintf("%s has no caller outside tests; delete it, or move it into a _test.go file", what)})
			}
		}
	}
	return out
}

// internalPackage reports whether the package lies under an internal/
// directory, where every exported name is the module's own business.
func internalPackage(p *Package) bool {
	for _, seg := range strings.Split(p.Path, "/") {
		if seg == "internal" {
			return true
		}
	}
	return false
}

// interfaceMethodNames collects the method names of every interface
// the set can dispatch through: the universe's error, each interface
// declared at package scope in a loaded package or any package it
// imports (transitively), and each interface-typed expression in the
// loaded code (anonymous interfaces in type assertions).
func interfaceMethodNames(pkgs []*Package) map[string]bool {
	names := map[string]bool{"Error": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if tp == nil || seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
		for _, tv := range p.Info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
	return names
}
