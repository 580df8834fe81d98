// atomicwrite: result-store files are written only via the temp+rename
// helper.
//
// The store's whole crash-safety story is that readers only ever see
// complete entries: writeAtomic stages bytes in a temp file and
// renames it into place. A direct os.WriteFile/os.Create against a
// store path reintroduces torn reads — a concurrent process would read
// half a cell and treat it as a corrupt miss at best, and IngestCell's
// byte-equality conflict detection at worst compares against garbage.
// The check flags any direct file-creation call (a) anywhere inside a
// resultstore package except the writeAtomic helper itself, and (b) in
// any package when the path argument is derived from a store
// (CellPath/ManifestPath/Dir on a Store value).

package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

func atomicwriteAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "atomicwrite",
		Doc:  "store-directory writes must go through the temp+rename helper, not os.WriteFile/os.Create",
		Run:  runAtomicwrite,
	}
}

// directWriteCalls are the os entry points that create or truncate a
// file in place.
var directWriteCalls = map[string]bool{
	"os.WriteFile": true,
	"os.Create":    true,
	"os.OpenFile":  true,
}

// storePathMethods are the methods whose result names a file or
// directory inside a store.
var storePathMethods = map[string]bool{
	"CellPath":     true,
	"ManifestPath": true,
	"Dir":          true,
}

func runAtomicwrite(pkgs []*Package) []Finding {
	var out []Finding
	eachFuncDecl(pkgs, func(p *Package, d *ast.FuncDecl) {
		inStore := storePackage(p)
		if inStore && d.Name.Name == "writeAtomic" {
			return // the one sanctioned call site
		}
		ast.Inspect(d.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(p.Info, call)
			if f == nil || f.Pkg() == nil {
				return true
			}
			q := f.Pkg().Path() + "." + f.Name()
			if !directWriteCalls[q] {
				return true
			}
			switch {
			case inStore:
				out = append(out, Finding{Check: "atomicwrite", Pos: position(p, call),
					Message: fmt.Sprintf("%s inside the result-store package bypasses writeAtomic (temp+rename)", q)})
			case len(call.Args) > 0 && storeDerivedPath(p, call.Args[0]):
				out = append(out, Finding{Check: "atomicwrite", Pos: position(p, call),
					Message: fmt.Sprintf("%s targets a result-store path; use the store's atomic write path instead", q)})
			}
			return true
		})
	})
	return out
}

// storePackage reports whether the package is a result store (matched
// by path segment so fixtures named "resultstore" participate).
func storePackage(p *Package) bool {
	for _, seg := range strings.Split(p.Path, "/") {
		if seg == "resultstore" {
			return true
		}
	}
	return false
}

// storeDerivedPath reports whether the expression's value is derived
// from a store location: it contains a call to CellPath/ManifestPath/
// Dir on a value whose named type is Store.
func storeDerivedPath(p *Package, e ast.Expr) bool {
	derived := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(p.Info, call)
		if f == nil || !storePathMethods[f.Name()] {
			return true
		}
		sig, ok := f.Type().(*types.Signature)
		if ok && sig.Recv() != nil && recvTypeName(sig.Recv().Type()) == "Store" {
			derived = true
			return false
		}
		return true
	})
	return derived
}
