// Package analyzers implements fp8vet, the project's determinism-
// contract checker suite. Every load-bearing guarantee of this
// reproduction — memoized cells, content-addressed store ingest that
// hard-errors on differing payloads, kernels proven byte-identical to
// the naive oracle — rests on source-level invariants that ordinary
// tests only probe after the fact. Each analyzer makes one of those
// invariants machine-checked on every push:
//
//	mapiter      map iteration feeding reports, encodings or store
//	             writes must sort its keys first
//	nondeterm    no wall clock, environment, CPU-count or global-RNG
//	             reads reachable from cell or kernel code
//	floatorder   kernel/codec float math must not invite FMA
//	             contraction, float equality, or split accumulators
//	atomicwrite  result-store files are written only via the
//	             temp+rename helper
//	cellpurity   RunCell bodies (and their direct in-package callees)
//	             must not assign package-level variables
//	unused       every internal/ function or method has a caller in
//	             the module's non-test code
//
// A finding is suppressed by an allowlist comment on the same line or
// the line above:
//
//	//fp8vet:ignore <check> <reason>
//
// The reason is mandatory — an ignore without one is itself reported —
// so every exemption documents why the contract holds anyway.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one contract violation at a source position.
type Finding struct {
	Check   string
	Pos     token.Position
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Message)
}

// Analyzer is one named contract check over a loaded package set.
type Analyzer struct {
	Name string
	Doc  string
	// Run reports violations across the whole package set (checks like
	// nondeterm walk call edges between packages).
	Run func(pkgs []*Package) []Finding
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		mapiterAnalyzer(),
		nondetermAnalyzer(),
		floatorderAnalyzer(),
		atomicwriteAnalyzer(),
		cellpurityAnalyzer(),
		unusedAnalyzer(),
	}
}

// ByName resolves a comma-separated check list ("mapiter,cellpurity").
func ByName(names string) ([]*Analyzer, error) {
	if strings.TrimSpace(names) == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			known := make([]string, 0, len(byName))
			for k := range byName {
				known = append(known, k)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown check %q (have %s)", n, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return All(), nil
	}
	return out, nil
}

// Directive is one parsed //fp8vet:ignore comment.
type Directive struct {
	Check  string
	Reason string
	Line   int
}

// directivePrefix is the ignore-comment marker.
const directivePrefix = "//fp8vet:ignore"

// parseDirectives collects the fp8vet:ignore comments of one file,
// keyed by line.
func parseDirectives(fset *token.FileSet, f *ast.File) map[int][]Directive {
	out := map[int][]Directive{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
			parts := strings.SplitN(rest, " ", 2)
			d := Directive{Line: fset.Position(c.Pos()).Line}
			if len(parts) > 0 {
				d.Check = parts[0]
			}
			if len(parts) == 2 {
				d.Reason = strings.TrimSpace(parts[1])
			}
			out[d.Line] = append(out[d.Line], d)
		}
	}
	return out
}

// RunResult is the outcome of running one analyzer over the set:
// surviving findings plus how many were suppressed by directives.
type RunResult struct {
	Analyzer *Analyzer
	Findings []Finding
	Ignored  int
}

// RunAll executes the given analyzers, applies ignore directives, and
// reports malformed directives (no check name, missing reason, or a
// check name no analyzer declares) as findings of the "directive"
// pseudo-check appended to the matching analyzer pass.
func RunAll(pkgs []*Package, as []*Analyzer) []RunResult {
	var out []RunResult
	for _, a := range as {
		raw := dedupeFindings(a.Run(pkgs))
		res := RunResult{Analyzer: a}
		for _, f := range raw {
			if ignored(pkgs, f) {
				res.Ignored++
				continue
			}
			res.Findings = append(res.Findings, f)
		}
		sortFindings(res.Findings)
		out = append(out, res)
	}
	// Directive hygiene rides with the suite: an ignore that names no
	// known check or gives no reason silently suppresses nothing (or
	// everything) — surface it.
	if bad := badDirectives(pkgs, as); len(bad) > 0 {
		out = append(out, RunResult{
			Analyzer: &Analyzer{Name: "directive", Doc: "fp8vet:ignore comments must name a check and give a reason"},
			Findings: bad,
		})
	}
	return out
}

// ignored reports whether a directive on the finding's line (or the
// line above it) suppresses the finding. Reason-less directives do not
// suppress — they are themselves findings.
func ignored(pkgs []*Package, f Finding) bool {
	for _, p := range pkgs {
		lines, ok := p.Ignores[f.Pos.Filename]
		if !ok {
			continue
		}
		for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
			for _, d := range lines[line] {
				if d.Check == f.Check && d.Reason != "" {
					return true
				}
			}
		}
	}
	return false
}

// badDirectives reports malformed ignore comments across the set.
func badDirectives(pkgs []*Package, as []*Analyzer) []Finding {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Finding
	for _, p := range pkgs {
		for _, file := range sortedKeys(p.Ignores) {
			lines := p.Ignores[file]
			lineNos := make([]int, 0, len(lines))
			for n := range lines {
				lineNos = append(lineNos, n)
			}
			sort.Ints(lineNos)
			for _, n := range lineNos {
				for _, d := range lines[n] {
					switch {
					case d.Check == "" || !known[d.Check]:
						out = append(out, Finding{
							Check:   "directive",
							Pos:     token.Position{Filename: file, Line: d.Line},
							Message: fmt.Sprintf("fp8vet:ignore names unknown check %q", d.Check),
						})
					case d.Reason == "":
						out = append(out, Finding{
							Check:   "directive",
							Pos:     token.Position{Filename: file, Line: d.Line},
							Message: fmt.Sprintf("fp8vet:ignore %s has no reason — say why the contract holds", d.Check),
						})
					}
				}
			}
		}
	}
	sortFindings(out)
	return dedupeFindings(out)
}

// dedupeFindings drops exact duplicates — build-tag variant packages
// (see loadIgnoredVariants) re-analyze the files they share with the
// base configuration, reproducing its findings verbatim.
func dedupeFindings(fs []Finding) []Finding {
	seen := map[string]bool{}
	out := fs[:0]
	for _, f := range fs {
		k := fmt.Sprintf("%s:%d:%s:%s", f.Pos.Filename, f.Pos.Line, f.Check, f.Message)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	return out
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Pos.Filename != fs[j].Pos.Filename {
			return fs[i].Pos.Filename < fs[j].Pos.Filename
		}
		if fs[i].Pos.Line != fs[j].Pos.Line {
			return fs[i].Pos.Line < fs[j].Pos.Line
		}
		return fs[i].Message < fs[j].Message
	})
}

// ---- shared AST/type helpers ----

// isFloat reports whether t's underlying type is a floating-point
// scalar.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (nil for calls through function values, builtins, or conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// funcKey names a function unambiguously across separately
// type-checked packages: "pkgpath.Recv.Name" (receiver type name
// without pointer) or "pkgpath.Name".
func funcKey(f *types.Func) string {
	if f == nil {
		return ""
	}
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return pkg + "." + recvTypeName(sig.Recv().Type()) + "." + f.Name()
	}
	return pkg + "." + f.Name()
}

// recvTypeName returns the bare named type of a receiver.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// declKey returns funcKey for a declared function in pkg.
func declKey(p *Package, d *ast.FuncDecl) string {
	if obj, ok := p.Info.Defs[d.Name].(*types.Func); ok {
		return funcKey(obj)
	}
	// Fallback when type info is partial (fixtures with errors).
	return p.Path + "." + d.Name.Name
}

// eachFuncDecl visits every function declaration with a body across
// the set.
func eachFuncDecl(pkgs []*Package, fn func(p *Package, d *ast.FuncDecl)) {
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok && d.Body != nil {
					fn(p, d)
				}
			}
		}
	}
}

// kernelOrCodecPackage reports whether the package is under the
// kernel/codec bit-identity contract: internal/fp8 and
// internal/tensor/kernels (matched by path segment so fixture packages
// named "fp8" or "kernels" participate too).
func kernelOrCodecPackage(p *Package) bool {
	for _, seg := range strings.Split(p.Path, "/") {
		if seg == "fp8" || seg == "kernels" {
			return true
		}
	}
	return false
}

// position converts a node position.
func position(p *Package, n ast.Node) token.Position {
	return p.Fset.Position(n.Pos())
}

// unparen strips parentheses (ast.Unparen needs go1.22; go.mod floors
// at 1.21).
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
