// Package loading for the fp8vet analyzers: packages are discovered
// with `go list -json` (so the set fp8vet sees is exactly the set the
// build sees), parsed with go/parser and type-checked with go/types —
// each listed package once, imports of anything else through the
// source importer — stdlib only, no external analysis framework. Test files are excluded: the determinism contracts govern
// the code that computes and persists results, not the code that
// checks it. Build-tag-excluded files (the other configuration's
// kernels) are analyzed too, via variant packages — see
// loadIgnoredVariants.

package analyzers

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package under analysis.
type Package struct {
	// Path is the import path ("fp8quant/internal/harness"), or the
	// package name for fixture packages loaded from a bare directory.
	Path string
	// Dir is the directory the files came from.
	Dir string
	// Files are the parsed non-test files.
	Files []*ast.File
	// Fset positions every node in Files.
	Fset *token.FileSet
	// Types and Info carry the type-checker's results. Info is always
	// populated; Types may be partially filled if the check errored.
	Types *types.Package
	Info  *types.Info
	// Ignores maps file -> line -> directives parsed from
	// //fp8vet:ignore comments.
	Ignores map[string]map[int][]Directive
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath     string
	Dir            string
	Name           string
	GoFiles        []string
	IgnoredGoFiles []string
}

// Load discovers the packages matching patterns (relative to dir) via
// `go list -json` and returns them parsed and type-checked. Packages
// that fail to type-check are still returned (analysis is best-effort
// on partial type info); a completely unparsable package is an error.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var listed []listedPackage
	dec := json.NewDecoder(&out)
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list -json decode: %v", err)
		}
		if len(p.GoFiles) > 0 {
			listed = append(listed, p)
		}
	}
	sort.Slice(listed, func(i, j int) bool { return listed[i].ImportPath < listed[j].ImportPath })

	fset := token.NewFileSet()
	imp := &moduleImporter{
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		fset:   fset,
		listed: map[string]listedPackage{},
		done:   map[string]*Package{},
	}
	for _, lp := range listed {
		imp.listed[lp.ImportPath] = lp
	}
	var pkgs []*Package
	for _, lp := range listed {
		pkg, err := imp.load(lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
		variants, err := loadIgnoredVariants(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, variants...)
	}
	return pkgs, nil
}

// moduleImporter resolves an import of a listed package to that
// package as Load type-checks it, checking it first if need be, and
// every other import through the source importer. Module packages are
// thus checked once, share one set of type objects, and resolve by
// what `go list` reported in Load's directory rather than by the
// process's working directory.
type moduleImporter struct {
	std    types.ImporterFrom
	fset   *token.FileSet
	listed map[string]listedPackage
	done   map[string]*Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	lp, ok := m.listed[path]
	if !ok {
		return m.std.ImportFrom(path, dir, mode)
	}
	p, err := m.load(lp)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

// load type-checks a listed package once.
func (m *moduleImporter) load(lp listedPackage) (*Package, error) {
	if p, ok := m.done[lp.ImportPath]; ok {
		return p, nil
	}
	files := make([]string, len(lp.GoFiles))
	for i, f := range lp.GoFiles {
		files[i] = filepath.Join(lp.Dir, f)
	}
	p, err := loadFiles(m.fset, m, lp.ImportPath, lp.Dir, files)
	if err != nil {
		return nil, err
	}
	m.done[lp.ImportPath] = p
	return p, nil
}

// loadIgnoredVariants analyzes the package's build-tag-excluded files
// (`go list`'s IgnoredGoFiles). The portable fallback a build tag
// hides on this host — gemm_generic.go's !amd64 kernels — is exactly
// the code most likely to break the bit-identity contract unnoticed,
// so each ignored file is type-checked as a variant of its package:
// the ignored file plus every regular file that declares none of the
// same top-level names (its build-tag counterpart collides and drops
// out, standing in for the other configuration). Findings duplicated
// by re-analyzing the shared files are deduplicated in RunAll.
func loadIgnoredVariants(fset *token.FileSet, imp types.Importer, lp listedPackage) ([]*Package, error) {
	var out []*Package
	for _, ig := range lp.IgnoredGoFiles {
		if !strings.HasSuffix(ig, ".go") || strings.HasSuffix(ig, "_test.go") {
			continue
		}
		igPath := filepath.Join(lp.Dir, ig)
		igFile, err := parser.ParseFile(token.NewFileSet(), igPath, nil, 0)
		if err != nil {
			continue // not parseable by this toolchain; nothing to check
		}
		names := declNames(igFile)
		files := []string{igPath}
		for _, f := range lp.GoFiles {
			fPath := filepath.Join(lp.Dir, f)
			base, err := parser.ParseFile(token.NewFileSet(), fPath, nil, 0)
			if err != nil || overlaps(names, declNames(base)) {
				continue
			}
			files = append(files, fPath)
		}
		sort.Strings(files)
		pkg, err := loadFiles(fset, imp, lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// declNames returns a file's top-level declaration names; methods are
// qualified by receiver type so only true redeclarations collide.
func declNames(f *ast.File) map[string]bool {
	names := map[string]bool{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			key := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) > 0 {
				key = astRecvName(d.Recv.List[0].Type) + "." + key
			}
			names[key] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				case *ast.TypeSpec:
					names[s.Name.Name] = true
				}
			}
		}
	}
	delete(names, "_")
	delete(names, "init")
	return names
}

// astRecvName extracts the receiver type name syntactically (no type
// info exists yet at collision-check time).
func astRecvName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return astRecvName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return astRecvName(t.X)
	}
	return ""
}

func overlaps(a, b map[string]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

// loadFiles parses and type-checks one package's files.
func loadFiles(fset *token.FileSet, imp types.Importer, path, dir string, files []string) (*Package, error) {
	pkg := &Package{
		Path: path,
		Dir:  dir,
		Fset: fset,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
		Ignores: map[string]map[int][]Directive{},
	}
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analyzers: parse %s: %v", f, err)
		}
		pkg.Files = append(pkg.Files, af)
		pkg.Ignores[f] = parseDirectives(fset, af)
	}
	conf := types.Config{
		Importer: imp,
		// Analysis is best-effort on partial type information: a
		// fixture (or a mid-refactor tree) with a type error should
		// still be analyzable for the constructs that do resolve.
		Error: func(error) {},
	}
	tpkg, _ := conf.Check(path, fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	return pkg, nil
}
