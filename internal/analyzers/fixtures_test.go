package analyzers

import (
	"fmt"
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Fixture tests: each testdata package seeds violations marked with
// trailing `// want <check> "substring"` comments. The analyzer must
// report exactly the marked lines (message containing the substring)
// and nothing else; //fp8vet:ignore directives in the fixture must
// suppress their finding and be counted.

var wantRe = regexp.MustCompile(`// want (\w+) "([^"]*)"`)

type wantMark struct {
	file   string
	line   int
	check  string
	substr string
}

func loadFixture(t *testing.T, dirs ...string) []*Package {
	t.Helper()
	var pkgs []*Package
	for _, d := range dirs {
		p, err := loadDir(filepath.Join("testdata", d))
		if err != nil {
			t.Fatalf("loadDir(%s): %v", d, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// loadDir loads the single package in dir (every non-test .go file) —
// the fixture-package entry point of the golden tests. The
// importer resolves from source, so fixtures may import the stdlib but
// nothing else.
func loadDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analyzers: no .go files in %s", dir)
	}
	sort.Strings(files)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	return loadFiles(fset, imp, filepath.Base(dir), dir, files)
}

func fixtureWants(pkgs []*Package) []wantMark {
	var out []wantMark
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					out = append(out, wantMark{file: pos.Filename, line: pos.Line, check: m[1], substr: m[2]})
				}
			}
		}
	}
	return out
}

// checkFixture runs one analyzer over the fixture dirs and compares
// findings against the want markers and the expected ignore count.
func checkFixture(t *testing.T, check string, wantIgnored int, dirs ...string) {
	t.Helper()
	checkPkgs(t, loadFixture(t, dirs...), check, wantIgnored)
}

// checkPkgs is checkFixture over loaded packages; extra marks findings
// a trailing want comment cannot (a directive's own line).
func checkPkgs(t *testing.T, pkgs []*Package, check string, wantIgnored int, extra ...wantMark) {
	t.Helper()
	as, err := ByName(check)
	if err != nil {
		t.Fatal(err)
	}
	results := RunAll(pkgs, as)
	var got []Finding
	ignored := 0
	for _, r := range results {
		got = append(got, r.Findings...)
		ignored += r.Ignored
	}
	wants := append(fixtureWants(pkgs), extra...)
	matched := make([]bool, len(wants))
	for _, f := range got {
		ok := false
		for i, w := range wants {
			if !matched[i] && w.check == f.Check && w.file == f.Pos.Filename &&
				w.line == f.Pos.Line && strings.Contains(f.Message, w.substr) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing finding at %s:%d: [%s] want message containing %q", w.file, w.line, w.check, w.substr)
		}
	}
	if ignored != wantIgnored {
		t.Errorf("ignored = %d, want %d", ignored, wantIgnored)
	}
}

func TestMapiterFixture(t *testing.T)    { checkFixture(t, "mapiter", 1, "mapiter") }
func TestNondetermFixture(t *testing.T)  { checkFixture(t, "nondeterm", 1, "nondeterm") }
func TestFloatorderFixture(t *testing.T) { checkFixture(t, "floatorder", 1, "kernels") }
func TestAtomicwriteFixture(t *testing.T) {
	checkFixture(t, "atomicwrite", 2, "resultstore", "storeclient")
}
func TestCellpurityFixture(t *testing.T) { checkFixture(t, "cellpurity", 1, "cellpurity") }

// TestUnusedFixture loads testdata/unused as the module it is, so a
// call from its cmd/app package counts as a reference and its
// lib_test.go is left out. The ignore without a reason suppresses
// nothing and is reported on its own line.
func TestUnusedFixture(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "unused"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := filepath.Abs(filepath.Join("testdata", "unused", "internal", "lib", "lib.go"))
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(lib)
	if err != nil {
		t.Fatal(err)
	}
	before, _, _ := strings.Cut(string(src), "//fp8vet:ignore unused\n")
	line := 1 + strings.Count(before, "\n")
	checkPkgs(t, pkgs, "unused", 1, wantMark{file: lib, line: line, check: "directive", substr: "has no reason"})
}

// TestDirectiveHygiene: a reason-less or unknown-check ignore is
// itself a finding, and suppresses nothing.
func TestDirectiveHygiene(t *testing.T) {
	pkgs := loadFixture(t, "directives")
	as, err := ByName("mapiter")
	if err != nil {
		t.Fatal(err)
	}
	results := RunAll(pkgs, as)
	var got []Finding
	for _, r := range results {
		got = append(got, r.Findings...)
		if r.Ignored != 0 {
			t.Errorf("analyzer %s ignored %d findings; malformed directives must not suppress", r.Analyzer.Name, r.Ignored)
		}
	}
	want := []struct {
		check, substr string
		line          int
	}{
		{"directive", `unknown check "nosuchcheck"`, 9},
		{"directive", "has no reason", 10},
		{"mapiter", "fmt.Println", 12},
	}
	for _, w := range want {
		found := false
		for _, f := range got {
			if f.Check == w.check && f.Pos.Line == w.line && strings.Contains(f.Message, w.substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing %s finding at line %d containing %q (got %v)", w.check, w.line, w.substr, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d findings, want %d: %v", len(got), len(want), got)
	}
}

// TestRepoClean is the self-check: the real tree must satisfy every
// contract the suite enforces (modulo its reasoned ignores) — the
// fp8vet CI gate in test form.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the full module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, r := range RunAll(pkgs, All()) {
		for _, f := range r.Findings {
			t.Errorf("%s", f)
		}
	}
}

// TestVariantAnalyzesBuildTagExcludedFiles proves the loader sees the
// other build configuration: a contraction hidden behind a !amd64 (or
// amd64) tag must be reported no matter which side of the tag the
// host is on.
func TestVariantAnalyzesBuildTagExcludedFiles(t *testing.T) {
	dir := t.TempDir()
	kdir := filepath.Join(dir, "kernels")
	if err := os.MkdirAll(kdir, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"go.mod": "module variantfix\n\ngo 1.21\n",
		"kernels/inner_amd64.go": `//go:build amd64

package kernels

func inner(acc, v, b float32) float32 {
	return acc + float32(v*b)
}
`,
		"kernels/inner_generic.go": `//go:build !amd64

package kernels

func inner(acc, v, b float32) float32 {
	return acc + v*b
}
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2 (base + build-tag variant)", len(pkgs))
	}
	as, err := ByName("floatorder")
	if err != nil {
		t.Fatal(err)
	}
	var got []Finding
	for _, r := range RunAll(pkgs, as) {
		got = append(got, r.Findings...)
	}
	if len(got) != 1 {
		t.Fatalf("got %d findings, want exactly the generic-side contraction: %v", len(got), got)
	}
	if base := filepath.Base(got[0].Pos.Filename); base != "inner_generic.go" {
		t.Errorf("finding in %s, want inner_generic.go", base)
	}
	if !strings.Contains(got[0].Message, "contraction") {
		t.Errorf("message %q does not mention contraction", got[0].Message)
	}
}

// TestVariantChecksConfigurationTogether loads testdata/variants, whose
// two riscv64 files are build-tag-excluded here and one calls the
// other. The loader must type-check them in one variant, as one build
// configuration compiles them, so unused finds blockRows' caller.
func TestVariantChecksConfigurationTogether(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "variants"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	checkPkgs(t, pkgs, "unused", 0)
}
