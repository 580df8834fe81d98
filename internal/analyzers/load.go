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
	"go/build"
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
	platforms, err := listPlatforms(dir)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range listed {
		pkg, err := imp.load(lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
		variants, err := loadIgnoredVariants(fset, imp, lp, platforms)
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
// hides on this host — the !amd64 kernels — is exactly the code most
// likely to break the bit-identity contract unnoticed, so the package
// is type-checked again for each other build configuration the
// toolchain targets (platforms, from `go tool dist list`) that builds
// an ignored file. A variant holds exactly the files its configuration
// builds, so ignored files that call one another are checked together.
// Configurations that build the same files share one variant; findings
// duplicated by re-analyzing the shared files are deduplicated in
// RunAll.
func loadIgnoredVariants(fset *token.FileSet, imp types.Importer, lp listedPackage, platforms [][2]string) ([]*Package, error) {
	ignored := map[string]bool{}
	candidates := append([]string(nil), lp.GoFiles...)
	for _, f := range lp.IgnoredGoFiles {
		if strings.HasSuffix(f, ".go") && !strings.HasSuffix(f, "_test.go") {
			ignored[f] = true
			candidates = append(candidates, f)
		}
	}
	if len(ignored) == 0 {
		return nil, nil
	}
	sort.Strings(candidates)
	seen := map[string]bool{}
	var out []*Package
	for _, pl := range platforms {
		ctx := build.Default
		ctx.GOOS, ctx.GOARCH = pl[0], pl[1]
		var files []string
		other := false
		for _, f := range candidates {
			if ok, err := ctx.MatchFile(lp.Dir, f); err == nil && ok {
				files = append(files, filepath.Join(lp.Dir, f))
				other = other || ignored[f]
			}
		}
		key := strings.Join(files, "\n")
		if !other || seen[key] {
			continue
		}
		seen[key] = true
		pkg, err := loadFiles(fset, imp, lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// listPlatforms returns the GOOS/GOARCH pairs the go toolchain
// targets, in `go tool dist list` order.
func listPlatforms(dir string) ([][2]string, error) {
	cmd := exec.Command("go", "tool", "dist", "list")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool dist list: %v", err)
	}
	var platforms [][2]string
	for _, line := range strings.Fields(string(out)) {
		if goos, goarch, ok := strings.Cut(line, "/"); ok {
			platforms = append(platforms, [2]string{goos, goarch})
		}
	}
	return platforms, nil
}

// astRecvName extracts a method's receiver type name syntactically.
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
