package harness

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
	"fp8quant/internal/resultstore"
	"fp8quant/internal/tensor/kernels"
)

// newExecTestExp returns a cheap deterministic 3x2 grid experiment and
// a counter of actual RunCell invocations.
func newExecTestExp() (Experiment, *atomic.Int64) {
	var computes atomic.Int64
	spec := func() GridSpec {
		return GridSpec{
			ID:   "exec-test",
			Seed: 3,
			Axes: []Axis{
				{Name: "model", Values: []string{"ma", "mb", "mc"}},
				{Name: "recipe", Values: []string{"r1", "r2"}},
			},
		}
	}
	cell := func(c Cell) evalx.Result {
		computes.Add(1)
		return evalx.Result{
			Model: c.Values[0], Recipe: c.Values[1],
			BaseAcc: 1, QAcc: 1 - float64(c.Index)/100,
			RelLoss: float64(c.Index) / 100, Pass: c.Index == 0,
			Metrics: map[string]float64{"aux": float64(c.Index) * 1.5},
		}
	}
	render := func(g *Grid) *Report {
		tb := newTable("cell", "qacc", "aux")
		vals := map[string]float64{}
		for i, r := range g.Results {
			key := g.Spec.KeyString(g.Spec.CellAt(i))
			tb.add(key, fmt.Sprintf("%.4f", r.QAcc), fmt.Sprintf("%.2f", r.Metrics["aux"]))
			vals["qacc_"+key] = r.QAcc
		}
		return &Report{Text: tb.String(), Values: vals}
	}
	return gridExp{id: "exec-test", title: "executor test grid", spec: spec, cell: cell, render: render}, &computes
}

// requireSameReport asserts byte-identical text and bit-identical
// values between two reports.
func requireSameReport(t *testing.T, a, b *Report, what string) {
	t.Helper()
	if a.Text != b.Text {
		t.Errorf("%s: report text differs:\n--- a ---\n%s\n--- b ---\n%s", what, a.Text, b.Text)
	}
	if !reflect.DeepEqual(a.Values, b.Values) {
		t.Errorf("%s: report values differ: %v vs %v", what, a.Values, b.Values)
	}
}

// TestWarmStoreMatchesStorelessReport checks a store filled by one
// run serves the next process in full: the warm render computes
// nothing, misses nothing, and is byte-identical to a storeless
// workers=1 run, serially and at full parallelism.
func TestWarmStoreMatchesStorelessReport(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			withCleanCache(t)
			defer SetWorkers(0)

			// Reference: a storeless workers=1 run.
			SetWorkers(1)
			SetStore(nil)
			refExp, _ := newExecTestExp()
			ref := Run(refExp)
			ClearMemo()

			SetWorkers(workers)
			s, err := resultstore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			SetStore(s)
			e, computes := newExecTestExp()
			n := e.Spec().NumCells()
			Run(e)
			if got := computes.Load(); got != int64(n) {
				t.Fatalf("cold run computed %d cells, want %d", got, n)
			}

			ClearMemo() // the warm run is a fresh process
			computes.Store(0)
			before := s.Stats()
			warm := Run(e)
			if got := computes.Load(); got != 0 {
				t.Errorf("warm run computed %d cells, want 0", got)
			}
			if d := s.Stats(); d.Misses != before.Misses || d.Hits-before.Hits != int64(n) {
				t.Errorf("warm run hits/misses = %d/%d, want %d/0", d.Hits-before.Hits, d.Misses-before.Misses, n)
			}
			requireSameReport(t, ref, warm, "warm vs storeless workers=1")
		})
	}
}

// TestResumeRecomputesOnlyMissingCells is the end-to-end per-cell
// resume contract: delete a subset of cell files from a warm store and
// re-run — the executor must recompute exactly the deleted cells
// (store misses == deleted cells) and the rendered report must be
// byte-identical to the cold run, serially and at full parallelism.
func TestResumeRecomputesOnlyMissingCells(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			withCleanCache(t)
			SetWorkers(workers)
			defer SetWorkers(0)
			s, err := resultstore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			SetStore(s)
			e, computes := newExecTestExp()
			spec := e.Spec()
			n := spec.NumCells()

			cold := Run(e)
			if got := computes.Load(); got != int64(n) {
				t.Fatalf("cold run computed %d cells, want %d", got, n)
			}
			if st := s.Stats(); st.Writes != int64(n) || st.Misses != int64(n) {
				t.Fatalf("cold run store stats = %+v, want %d misses / %d writes", st, n, n)
			}

			// Warm full run across a process boundary: zero computes.
			ClearMemo()
			computes.Store(0)
			beforeWarm := s.Stats()
			warm := Run(e)
			if got := computes.Load(); got != 0 {
				t.Fatalf("warm run computed %d cells, want 0", got)
			}
			if d := s.Stats(); d.Hits-beforeWarm.Hits != int64(n) {
				t.Fatalf("warm run hits = %d, want %d", d.Hits-beforeWarm.Hits, n)
			}
			requireSameReport(t, cold, warm, "warm vs cold")

			// Interrupt simulation: drop a subset of cells, re-run.
			deleted := []int{1, 4}
			for _, i := range deleted {
				path := s.CellPath(spec.CellKey(spec.CellAt(i)).Fingerprint())
				if err := os.Remove(path); err != nil {
					t.Fatalf("deleting cell %d: %v", i, err)
				}
			}
			ClearMemo()
			computes.Store(0)
			before := s.Stats()
			resumed := Run(e)
			if got := computes.Load(); got != int64(len(deleted)) {
				t.Fatalf("resume computed %d cells, want %d (only the deleted ones)", got, len(deleted))
			}
			d := s.Stats()
			if misses := d.Misses - before.Misses; misses != int64(len(deleted)) {
				t.Errorf("resume misses = %d, want %d", misses, len(deleted))
			}
			if hits := d.Hits - before.Hits; hits != int64(n-len(deleted)) {
				t.Errorf("resume hits = %d, want %d", hits, n-len(deleted))
			}
			if writes := d.Writes - before.Writes; writes != int64(len(deleted)) {
				t.Errorf("resume writes = %d, want %d", writes, len(deleted))
			}
			requireSameReport(t, cold, resumed, "resumed vs cold")
		})
	}
}

// TestRunGridRecoversCellPanic checks a panicking RunCell becomes an
// Err-marked, never-persisted result instead of killing the process —
// cells run on pool worker goroutines, where an escaped panic is fatal
// regardless of any recover in the caller.
func TestRunGridRecoversCellPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withCleanCache(t)
		SetWorkers(workers)
		s, err := resultstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		SetStore(s)
		spec := func() GridSpec {
			return GridSpec{ID: "panic-test", Axes: []Axis{{Name: "i", Values: []string{"0", "1", "2"}}}}
		}
		cell := func(c Cell) evalx.Result {
			if c.Index == 1 {
				panic("cell blew up")
			}
			return evalx.Result{Model: c.Values[0], QAcc: 1}
		}
		e := gridExp{id: "panic-test", title: "panic test", spec: spec, cell: cell,
			render: func(g *Grid) *Report { return &Report{Text: "ok", Values: map[string]float64{}} }}
		g, _, err := RunGrid(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		if g.Results[1].Err == "" || !strings.Contains(g.Results[1].Err, "panic") {
			t.Errorf("workers=%d: panicking cell result = %+v, want panic Err", workers, g.Results[1])
		}
		if g.Results[0].Err != "" || g.Results[2].Err != "" {
			t.Errorf("workers=%d: healthy cells affected: %+v", workers, g.Results)
		}
		if st := s.Stats(); st.Writes != 2 {
			t.Errorf("workers=%d: store writes = %d, want 2 (panicked cell never persisted)", workers, st.Writes)
		}
		SetWorkers(0)
	}
}

// TestRunGridBuildsEachModelOnce runs a 2-model x 3-recipe grid at 2
// workers through withModelCell, on each worker's session, and records
// the networks its cells ran on. The first two cells wait for each other at a barrier, so
// both workers hold a network at once. Model-affine claims put them on
// different models, and only the tail may put a second worker on a
// running model, so the grid uses at most one network per model plus
// one. Row-major claims would run both first cells on one model.
func TestRunGridBuildsEachModelOnce(t *testing.T) {
	withCleanCache(t)
	defer SetWorkers(0)
	SetWorkers(2)
	names := []string{"cifar_resnet20", "tinybert_mrpc"}
	var (
		mu      sync.Mutex
		nets    = map[*models.Network]bool{}
		barrier []string // the models of the two cells held at the barrier
		arrived sync.WaitGroup
	)
	arrived.Add(2)
	e := gridExp{id: "exec-affinity", title: "model-affine claims",
		spec: func() GridSpec {
			return GridSpec{ID: "exec-affinity", Axes: []Axis{
				{Name: "model", Values: names},
				{Name: "recipe", Values: []string{"r1", "r2", "r3"}},
			}}
		},
		cell: func(c Cell) evalx.Result {
			name := c.Values[0]
			return withModelCell(c.session, name, c.Values[1], func(net *models.Network, _ *evalx.Split) evalx.Result {
				mu.Lock()
				nets[net] = true
				first := len(barrier) < 2
				if first {
					barrier = append(barrier, name)
				}
				mu.Unlock()
				if first {
					arrived.Done()
					arrived.Wait()
				}
				return evalx.Result{Model: name, Recipe: c.Values[1], QAcc: 1}
			})
		},
		render: func(*Grid) *Report { return &Report{Values: map[string]float64{}} },
	}
	g, _, err := RunGrid(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range g.Results {
		if r.Err != "" {
			t.Fatalf("cell %d: %s", i, r.Err)
		}
	}
	if len(barrier) != 2 || barrier[0] == barrier[1] {
		t.Errorf("the two concurrent first cells ran models %q, want two different models", barrier)
	}
	if len(nets) > len(names)+1 {
		t.Errorf("the grid used %d networks for %d models, want at most %d", len(nets), len(names), len(names)+1)
	}
}

// TestRunGridFilterSelectsSubGrid checks a filter runs exactly the
// matching cells and SubGridReport renders them.
func TestRunGridFilterSelectsSubGrid(t *testing.T) {
	withCleanCache(t)
	SetStore(nil)
	e, computes := newExecTestExp()
	f := Filter{"model": {"mb"}}
	g, sel, err := RunGrid(e, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0] != 2 || sel[1] != 3 {
		t.Fatalf("selected cells = %v, want [2 3]", sel)
	}
	if got := computes.Load(); got != 2 {
		t.Fatalf("filtered run computed %d cells, want 2", got)
	}
	// Unselected cells carry the sentinel Err, so a renderer handed the
	// partial grid skips them instead of aggregating zeros.
	if g.Results[0].Err != ErrNotSelected || g.Results[5].Err != ErrNotSelected {
		t.Errorf("unselected cells not marked: %+v / %+v", g.Results[0], g.Results[5])
	}
	rep := SubGridReport(e, g, sel)
	if !strings.Contains(rep.Text, "model=mb,recipe=r1") {
		t.Errorf("sub-grid report missing cell row:\n%s", rep.Text)
	}
	if !strings.Contains(rep.Text, "2 of 6 cells") {
		t.Errorf("sub-grid report missing selection summary:\n%s", rep.Text)
	}
	if _, ok := rep.Values["qacc_model=mb,recipe=r2"]; !ok {
		t.Errorf("sub-grid values missing cell entry: %v", rep.Values)
	}
}

// TestRunGridFilterNoMatch checks an unmatched filter is an error, not
// a silent full run.
func TestRunGridFilterNoMatch(t *testing.T) {
	withCleanCache(t)
	SetStore(nil)
	e, computes := newExecTestExp()
	if _, _, err := RunGrid(e, Filter{"model": {"nope"}}); err == nil {
		t.Fatal("unmatched filter should error")
	}
	if _, _, err := RunGrid(e, Filter{"no-such-axis": {"x"}}); err == nil {
		t.Fatal("unknown filter axis should error")
	}
	if got := computes.Load(); got != 0 {
		t.Fatalf("unmatched filter computed %d cells, want 0", got)
	}
	// A filter can never apply to an axis-less (scalar) experiment —
	// that must error too, not silently succeed with zero cells.
	scalar, _ := Get("fig1")
	if _, _, err := RunGrid(scalar, Filter{"model": {"resnet50"}}); err == nil {
		t.Fatal("filter on a scalar experiment should error")
	}
}

// TestRunGridWritesManifest checks a full run records the grid
// schedule once.
func TestRunGridWritesManifest(t *testing.T) {
	withCleanCache(t)
	s, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetStore(s)
	e, _ := newExecTestExp()
	Run(e)
	spec := e.Spec()
	m, ok := s.LoadManifest(spec.ID, spec.Seed)
	if !ok {
		t.Fatal("full run should write a grid manifest")
	}
	if len(m.Cells) != spec.NumCells() || len(m.Axes) != len(spec.Axes) {
		t.Errorf("manifest shape = %d cells / %d axes, want %d / %d",
			len(m.Cells), len(m.Axes), spec.NumCells(), len(spec.Axes))
	}
	if m.Cells[0] != spec.CellKey(spec.CellAt(0)).Fingerprint() {
		t.Error("manifest cell fingerprints disagree with the spec")
	}
	// The cold run computed fresh cells, so it stamps the dispatched
	// kernel variant into the manifest's provenance.
	if len(m.KernelVariants) != 1 || m.KernelVariants[0] != string(kernels.Active()) {
		t.Errorf("cold-run manifest variants = %v, want [%s]", m.KernelVariants, kernels.Active())
	}
	// A fully warm re-run serves everything from the store: it must not
	// restamp (nor otherwise rewrite) the manifest — a pre-variant
	// store's manifest stays byte-identical across warm runs.
	path := s.ManifestPath(spec.ID, spec.Seed)
	legacy := m
	legacy.KernelVariants = nil
	if err := s.SaveManifest(legacy); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ClearMemo()
	Run(e)
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("warm run rewrote the manifest of a variant-less store")
	}
}

// TestRunGridRefusesAnotherTier pins the one-tier rule on the local
// path: over a grid whose manifest records another kernel variant, a
// run that needs a fresh cell computes and stores none, returns the
// conflict and leaves the manifest alone, while a fully warm run still
// serves and leaves the manifest byte-identical.
func TestRunGridRefusesAnotherTier(t *testing.T) {
	withCleanCache(t)
	s, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetStore(s)
	e, computes := newExecTestExp()
	Run(e)
	spec := e.Spec()
	m, _ := s.LoadManifest(spec.ID, spec.Seed)
	m.KernelVariants = []string{"other"}
	if err := s.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	path := s.ManifestPath(spec.ID, spec.Seed)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameManifest := func(what string) {
		t.Helper()
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(before, after) {
			t.Errorf("%s changed the manifest: %s", what, after)
		}
	}
	cold := computes.Load()

	ClearMemo()
	if _, _, err := RunGrid(e, nil); err != nil {
		t.Fatalf("fully warm run over another tier's grid: %v", err)
	}
	sameManifest("a fully warm run")

	lost := s.CellPath(spec.CellKey(spec.CellAt(0)).Fingerprint())
	if err := os.Remove(lost); err != nil {
		t.Fatal(err)
	}
	for _, f := range []Filter{nil, {"model": {"ma"}}} {
		ClearMemo()
		writes := s.Stats().Writes
		if _, _, err := RunGrid(e, f); !errors.Is(err, resultstore.ErrVariantConflict) {
			t.Fatalf("run with filter %q needing a fresh cell = %v, want a variant conflict", f.String(), err)
		}
		if n := computes.Load() - cold; n != 0 || s.Stats().Writes != writes {
			t.Fatalf("refused run with filter %q computed %d cells and stored %d", f.String(), n, s.Stats().Writes-writes)
		}
		if _, err := os.Stat(lost); !os.IsNotExist(err) {
			t.Fatalf("refused run with filter %q stored the missing cell", f.String())
		}
		sameManifest("a refused run")
	}
}

// TestScalarExperimentRuns checks axis-less experiments execute
// entirely in Render with no store traffic.
func TestScalarExperimentRuns(t *testing.T) {
	withCleanCache(t)
	s, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetStore(s)
	e, _ := Get("fig3")
	rep := Run(e)
	if len(rep.Values) == 0 {
		t.Fatal("scalar experiment produced no values")
	}
	if st := s.Stats(); st.Hits+st.Misses+st.Writes != 0 {
		t.Errorf("scalar experiment touched the store: %+v", st)
	}
}

// TestParseFilter covers the -filter syntax table-driven: the happy
// paths, whitespace trimming, duplicate axes (merged, order kept),
// empty values and the malformed-term error paths.
func TestParseFilter(t *testing.T) {
	cases := []struct {
		name, in string
		want     Filter
		wantErr  bool
	}{
		{name: "empty means no filter", in: "", want: nil},
		{name: "blank means no filter", in: "   ", want: nil},
		{name: "single term", in: "model=resnet50",
			want: Filter{"model": {"resnet50"}}},
		{name: "alternatives and second axis", in: "model=resnet50;densenet121,recipe=E4M3 Static",
			want: Filter{"model": {"resnet50", "densenet121"}, "recipe": {"E4M3 Static"}}},
		{name: "whitespace around separators trimmed", in: " model = resnet50 ; densenet121 ",
			want: Filter{"model": {"resnet50", "densenet121"}}},
		{name: "duplicate axes merge in order", in: "model=a,recipe=r,model=b;c",
			want: Filter{"model": {"a", "b", "c"}, "recipe": {"r"}}},
		{name: "value containing equals kept whole", in: "recipe=E4M3(b=11)",
			want: Filter{"recipe": {"E4M3(b=11)"}}},
		{name: "bare axis", in: "model", wantErr: true},
		{name: "missing axis name", in: "=x", wantErr: true},
		{name: "empty value", in: "model=", wantErr: true},
		{name: "empty alternative", in: "model=a;;b", wantErr: true},
		{name: "blank alternative", in: "model=a; ", wantErr: true},
		{name: "whitespace-only axis", in: " =a", wantErr: true},
		{name: "trailing comma empty term", in: "model=a,", wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := ParseFilter(tc.in)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ParseFilter(%q) = %v, want error", tc.in, f)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseFilter(%q): %v", tc.in, err)
			}
			if !reflect.DeepEqual(f, tc.want) {
				t.Errorf("ParseFilter(%q) = %v, want %v", tc.in, f, tc.want)
			}
		})
	}
}

// TestGridSpecCellOrder pins the row-major cell order and key shape.
func TestGridSpecCellOrder(t *testing.T) {
	e, _ := newExecTestExp()
	spec := e.Spec()
	c := spec.CellAt(3)
	if c.Values[0] != "mb" || c.Values[1] != "r2" {
		t.Errorf("cell 3 = %v, want [mb r2] (row-major, last axis fastest)", c.Values)
	}
	if got := spec.KeyString(c); got != "model=mb,recipe=r2" {
		t.Errorf("KeyString = %q", got)
	}
	k := spec.CellKey(c)
	if k.Grid != "exec-test" || k.Seed != 3 || k.Schema != resultstore.SchemaVersion {
		t.Errorf("cell key = %+v", k)
	}
	// Sibling cells must have distinct fingerprints.
	k2 := spec.CellKey(spec.CellAt(2))
	if k.Fingerprint() == k2.Fingerprint() {
		t.Error("distinct cells share a fingerprint")
	}
}

// TestSelectMatchesCellValues checks Select's index arithmetic against
// the cells' resolved values on a three-axis grid whose axes differ in
// length, with a value repeated within an axis.
func TestSelectMatchesCellValues(t *testing.T) {
	spec := GridSpec{ID: "select-test", Axes: []Axis{
		{Name: "a", Values: []string{"x", "y", "x"}},
		{Name: "b", Values: []string{"p", "q"}},
		{Name: "c", Values: []string{"1", "2", "3", "4"}},
	}}
	for _, f := range []Filter{
		{"a": {"x"}},
		{"b": {"q"}, "c": {"2", "4", "9"}},
		{"a": {"y"}, "b": {"p", "q"}, "c": {"1"}},
		{"c": {"none"}},
	} {
		var want []int
		for i := 0; i < spec.NumCells(); i++ {
			c := spec.CellAt(i)
			ok := true
			for ai, a := range spec.Axes {
				if vs, filtered := f[a.Name]; filtered && !slices.Contains(vs, c.Values[ai]) {
					ok = false
				}
			}
			if ok {
				want = append(want, i)
			}
		}
		if got := spec.Select(f); !slices.Equal(got, want) {
			t.Errorf("Select(%v) = %v, want %v", f, got, want)
		}
	}
}

// TestSharedGridExperimentsShareCells checks table2/fig4/fig5 declare
// the identical sweep grid, so their cells are shared by construction.
func TestSharedGridExperimentsShareCells(t *testing.T) {
	t2, _ := Get("table2")
	f4, _ := Get("fig4")
	f5, _ := Get("fig5")
	s2, s4, s5 := t2.Spec(), f4.Spec(), f5.Spec()
	k2 := s2.CellKey(s2.CellAt(0)).Fingerprint()
	if k2 != s4.CellKey(s4.CellAt(0)).Fingerprint() || k2 != s5.CellKey(s5.CellAt(0)).Fingerprint() {
		t.Error("table2/fig4/fig5 should share cell fingerprints")
	}
}

// TestCoverageAfterDeletionAndResume mirrors the fp8bench -coverage
// acceptance check at the library layer: a completed store reports
// 100%, deleting k cells reports exactly those k missing, and a resume
// run restores 100%.
func TestCoverageAfterDeletionAndResume(t *testing.T) {
	withCleanCache(t)
	SetWorkers(1)
	defer SetWorkers(0)
	s, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetStore(s)
	e, _ := newExecTestExp()
	spec := e.Spec()
	Run(e)
	m, ok := s.LoadManifest(spec.ID, spec.Seed)
	if !ok {
		t.Fatal("completed run must leave a manifest")
	}
	if cov := s.Coverage(m); !cov.Complete() || cov.Percent() != 100 {
		t.Fatalf("completed store coverage = %+v, want complete", cov)
	}

	deleted := []int{0, 3, 5}
	for _, i := range deleted {
		if err := os.Remove(s.CellPath(spec.CellKey(spec.CellAt(i)).Fingerprint())); err != nil {
			t.Fatal(err)
		}
	}
	cov := s.Coverage(m)
	if len(cov.Missing) != len(deleted) || cov.Done != spec.NumCells()-len(deleted) {
		t.Fatalf("coverage after deleting %v = %+v, want exactly those missing", deleted, cov)
	}
	for i, idx := range cov.Missing {
		if idx != deleted[i] {
			t.Errorf("missing[%d] = %d, want %d (row-major index of the deleted cell)", i, idx, deleted[i])
		}
	}

	ClearMemo()
	Run(e) // resume recomputes the deleted cells
	if cov := s.Coverage(m); !cov.Complete() {
		t.Fatalf("coverage after resume = %+v, want 100%%", cov)
	}
}

// TestValidateFilterListsAxes checks the unknown-axis error names the
// grid's real axes — the fix for silently-empty filtered sub-grids.
func TestValidateFilterListsAxes(t *testing.T) {
	e, _ := newExecTestExp()
	spec := e.Spec()
	if err := spec.ValidateFilter(Filter{"model": {"ma"}}); err != nil {
		t.Errorf("declared axis rejected: %v", err)
	}
	err := spec.ValidateFilter(Filter{"modle": {"ma"}})
	if err == nil {
		t.Fatal("unknown axis must be rejected")
	}
	for _, want := range []string{"modle", "model", "recipe", "exec-test"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
	// RunGrid surfaces it instead of running an empty sub-grid.
	if _, _, err := RunGrid(e, Filter{"modle": {"ma"}}); err == nil || !strings.Contains(err.Error(), "model, recipe") {
		t.Errorf("RunGrid unknown-axis error = %v, want the axis list", err)
	}
	// Scalar experiments say so rather than listing nothing.
	scalar, _ := Get("fig1")
	if err := scalar.Spec().ValidateFilter(Filter{"model": {"x"}}); err == nil || !strings.Contains(err.Error(), "no axes") {
		t.Errorf("scalar ValidateFilter = %v, want a no-axes explanation", err)
	}
}

// TestValidateFilterAxes pins the batch rule: an axis no experiment
// declares fails fast with the per-experiment axis lists, while an
// axis valid for at least one experiment passes (the batch skips the
// others).
func TestValidateFilterAxes(t *testing.T) {
	exps := func(ids ...string) []Experiment {
		out := make([]Experiment, len(ids))
		for i, id := range ids {
			var ok bool
			if out[i], ok = Get(id); !ok {
				t.Fatalf("no experiment %s", id)
			}
		}
		return out
	}
	if err := ValidateFilterAxes(exps("table2"), nil); err != nil {
		t.Errorf("nil filter: %v", err)
	}
	if err := ValidateFilterAxes(exps("table2"), Filter{"model": {"resnet50"}}); err != nil {
		t.Errorf("declared axis: %v", err)
	}
	// fig6 has no "model" axis, but table2 does — valid for the batch.
	if err := ValidateFilterAxes(exps("table2", "fig6"), Filter{"model": {"resnet50"}}); err != nil {
		t.Errorf("axis valid for one of two experiments: %v", err)
	}
	err := ValidateFilterAxes(exps("table2"), Filter{"modle": {"resnet50"}})
	if err == nil {
		t.Fatal("typo'd axis must be a hard error, not an empty sub-grid")
	}
	for _, want := range []string{"modle", "table2", "model"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
	// Scalar experiments are called out rather than listed as empty.
	err = ValidateFilterAxes(exps("fig1"), Filter{"model": {"x"}})
	if err == nil || !strings.Contains(err.Error(), "no axes") {
		t.Errorf("scalar-only error = %v, want a no-axes note", err)
	}
}
