package harness

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"fp8quant/internal/resultstore"
)

// Shard returns the i-th of n disjoint subsets of the spec's row-major
// cell indices (0 <= i < n), by Shard.Owns over the full cell range:
// the oracle the executor's filtered sharding is checked against.
// Invalid arguments panic.
func (s GridSpec) Shard(i, n int) []int {
	if n < 1 || i < 0 || i >= n {
		panic(fmt.Sprintf("harness: GridSpec.Shard(%d, %d) out of range", i, n))
	}
	num := s.NumCells()
	sh := Shard{Index: i, Count: n}
	out := make([]int, 0, (num+n-1)/n)
	for j := 0; j < num; j++ {
		if sh.Owns(j) {
			out = append(out, j)
		}
	}
	return out
}

// TestShardDisjointComplete proves the shard plan's core contract on
// real experiment grids and the synthetic one: for several n, the n
// subsets are pairwise disjoint, jointly cover every cell exactly
// once, stay in row-major order, and differ in size by at most one.
func TestShardDisjointComplete(t *testing.T) {
	specs := map[string]GridSpec{}
	for _, id := range []string{"table2", "table3", "fig7", "fig6"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		specs[id] = e.Spec()
	}
	e, _ := newExecTestExp()
	specs["exec-test"] = e.Spec()

	for name, spec := range specs {
		num := spec.NumCells()
		if num == 0 {
			t.Fatalf("%s: spec has no cells", name)
		}
		for _, n := range []int{1, 2, 3, 5, 7, num, num + 3} {
			seen := make([]int, num)
			minSize, maxSize := num+1, -1
			for i := 0; i < n; i++ {
				sub := spec.Shard(i, n)
				if len(sub) < minSize {
					minSize = len(sub)
				}
				if len(sub) > maxSize {
					maxSize = len(sub)
				}
				prev := -1
				for _, j := range sub {
					if j < 0 || j >= num {
						t.Fatalf("%s n=%d shard %d: index %d out of range [0,%d)", name, n, i, j, num)
					}
					if j <= prev {
						t.Errorf("%s n=%d shard %d: indices not strictly increasing", name, n, i)
					}
					prev = j
					seen[j]++
				}
			}
			for j, c := range seen {
				if c != 1 {
					t.Fatalf("%s n=%d: cell %d covered %d times, want exactly 1 (disjoint + complete)", name, n, j, c)
				}
			}
			if maxSize-minSize > 1 {
				t.Errorf("%s n=%d: shard sizes range [%d, %d], want balanced within 1", name, n, minSize, maxSize)
			}
		}
		// Stability: the same (spec, i, n) must always yield the same
		// subset — shard plans are computed independently per process.
		a := fmt.Sprint(spec.Shard(1, 3))
		b := fmt.Sprint(spec.Shard(1, 3))
		if a != b {
			t.Errorf("%s: Shard(1,3) not deterministic: %s vs %s", name, a, b)
		}
	}
}

// TestShardValidate covers the plan's argument checking.
func TestShardValidate(t *testing.T) {
	for _, ok := range []Shard{{}, {Count: 1}, {Count: 3}, {Index: 2, Count: 3}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []Shard{{Index: 3, Count: 3}, {Index: -1, Count: 3}, {Index: 0, Count: -1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) should error", bad)
		}
	}
	if !(Shard{Count: 2}).Enabled() || (Shard{Count: 1}).Enabled() || (Shard{}).Enabled() {
		t.Error("Enabled: want true only for Count > 1")
	}
}

// TestShardedRunsMergeToIdenticalReport is the sharded-equivalence
// contract end to end: run the grid as 3 disjoint shards into 3
// separate stores (each behind a simulated process boundary), merge
// the stores, and render warm — the report must be byte-identical to
// the unsharded workers=1 run with zero misses and zero recomputes.
func TestShardedRunsMergeToIdenticalReport(t *testing.T) {
	const shards = 3
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			withCleanCache(t)
			SetWorkers(workers)
			defer SetWorkers(0)

			// Reference: unsharded workers=1 run, no store.
			SetWorkers(1)
			SetStore(nil)
			refExp, _ := newExecTestExp()
			ref := Run(refExp)
			ClearMemo()
			SetWorkers(workers)

			// Compute each shard into its own store, as separate
			// "processes" (memo cleared between them).
			n := refExp.Spec().NumCells()
			stores := make([]*resultstore.Store, shards)
			totalComputes := int64(0)
			for i := 0; i < shards; i++ {
				s, err := resultstore.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				stores[i] = s
				SetStore(s)
				e, computes := newExecTestExp()
				g, sel, err := RunGrid(e, nil, Shard{Index: i, Count: shards})
				if err != nil {
					t.Fatal(err)
				}
				if len(sel) != n {
					t.Fatalf("shard %d: selection = %d cells, want the full grid %d", i, len(sel), n)
				}
				want := int64(len(e.Spec().Shard(i, shards)))
				if got := computes.Load(); got != want {
					t.Errorf("shard %d computed %d cells, want %d (its slice only)", i, got, want)
				}
				totalComputes += computes.Load()
				// Other shards' cells are absent from this store and
				// must carry the sentinel, not zero values.
				for _, j := range e.Spec().Shard((i+1)%shards, shards) {
					if g.Results[j].Err != ErrNotInShard {
						t.Errorf("shard %d: foreign cell %d = %+v, want ErrNotInShard", i, j, g.Results[j])
					}
				}
				ClearMemo() // next shard is a fresh process
			}
			if totalComputes != int64(n) {
				t.Errorf("shards computed %d cells total, want %d (disjoint, complete)", totalComputes, n)
			}

			// Merge all shard stores into a fresh one.
			merged, err := resultstore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			copied := 0
			for _, s := range stores {
				st, err := merged.Merge(s)
				if err != nil {
					t.Fatal(err)
				}
				copied += st.CellsCopied
			}
			if copied != n {
				t.Errorf("merge copied %d cells, want %d", copied, n)
			}

			// Warm full run against the merged store: zero computes,
			// zero misses, byte-identical report.
			SetStore(merged)
			e, computes := newExecTestExp()
			before := merged.Stats()
			warm := Run(e)
			if got := computes.Load(); got != 0 {
				t.Errorf("warm run after merge computed %d cells, want 0", got)
			}
			d := merged.Stats()
			if misses := d.Misses - before.Misses; misses != 0 {
				t.Errorf("warm run after merge had %d misses, want 0", misses)
			}
			requireSameReport(t, ref, warm, "merged warm vs unsharded workers=1")

			// The merged manifest must record all three shard slices.
			spec := e.Spec()
			m, ok := merged.LoadManifest(spec.ID, spec.Seed)
			if !ok {
				t.Fatal("merged store lost the grid manifest")
			}
			if len(m.Shards) != shards {
				t.Fatalf("merged manifest shard records = %+v, want %d entries", m.Shards, shards)
			}
			for i, r := range m.Shards {
				if r != (resultstore.ShardRecord{Index: i, Count: shards}) {
					t.Errorf("merged shard record %d = %+v", i, r)
				}
			}
		})
	}
}

// TestShardedRunRendersPresentCells checks a sharded run fills sibling
// shards' cells from the store when they are already there — the
// "render from whatever is present" half of the contract.
func TestShardedRunRendersPresentCells(t *testing.T) {
	withCleanCache(t)
	SetWorkers(1)
	defer SetWorkers(0)
	s, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetStore(s)

	// Shard 1/2 runs first and persists its slice.
	e, _ := newExecTestExp()
	if _, _, err := RunGrid(e, nil, Shard{Index: 0, Count: 2}); err != nil {
		t.Fatal(err)
	}
	ClearMemo()

	// Shard 2/2 runs against the same store: shard 1's cells are
	// present and must render as real results, not sentinels.
	e2, computes := newExecTestExp()
	g, _, err := RunGrid(e2, nil, Shard{Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := e2.Spec()
	if got, want := computes.Load(), int64(len(spec.Shard(1, 2))); got != want {
		t.Errorf("second shard computed %d cells, want %d", got, want)
	}
	for _, j := range spec.Shard(0, 2) {
		if g.Results[j].Err != "" {
			t.Errorf("cell %d present in store but rendered as error %q", j, g.Results[j].Err)
		}
	}
	// And the report over the shared store is the full one.
	rep := e2.Render(g)
	full, _ := newExecTestExp()
	SetStore(nil)
	ClearMemo()
	SetWorkers(1)
	requireSameReport(t, Run(full), rep, "two sequential shards over one store vs unsharded")
}

// TestShardedFilteredRun checks shard and filter compose: the shard
// slices the *positions* of the filtered selection (not the absolute
// grid indices), and unfiltered cells keep the ErrNotSelected
// sentinel.
func TestShardedFilteredRun(t *testing.T) {
	withCleanCache(t)
	SetWorkers(1)
	defer SetWorkers(0)
	SetStore(nil)
	e, computes := newExecTestExp()
	f := Filter{"model": {"ma", "mb"}} // cells 0..3
	g, sel, err := RunGrid(e, f, Shard{Index: 0, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 4 {
		t.Fatalf("selection = %v, want the 4 filtered cells", sel)
	}
	// Shard 0 of 2 over cells {0,1,2,3} computes positions 0 and 2.
	if got := computes.Load(); got != 2 {
		t.Errorf("computed %d cells, want 2 (shard slice of the filtered selection)", got)
	}
	if g.Results[1].Err != ErrNotInShard || g.Results[3].Err != ErrNotInShard {
		t.Errorf("odd filtered cells should be ErrNotInShard: %+v / %+v", g.Results[1], g.Results[3])
	}
	if g.Results[4].Err != ErrNotSelected || g.Results[5].Err != ErrNotSelected {
		t.Errorf("unfiltered cells should stay ErrNotSelected: %+v / %+v", g.Results[4], g.Results[5])
	}
}

// TestShardedFilteredRunBalancesResidueClasses is the regression test
// for position-based shard slicing: a single-recipe filter on a
// [model, recipe] grid selects indices that all share a residue class
// (1, 3, 5 here) — slicing by absolute index would hand every cell to
// one shard and starve the rest.
func TestShardedFilteredRunBalancesResidueClasses(t *testing.T) {
	withCleanCache(t)
	SetWorkers(1)
	defer SetWorkers(0)
	SetStore(nil)
	f := Filter{"recipe": {"r2"}} // cells 1, 3, 5: all odd
	var total int64
	for i := 0; i < 2; i++ {
		e, computes := newExecTestExp()
		if _, _, err := RunGrid(e, f, Shard{Index: i, Count: 2}); err != nil {
			t.Fatal(err)
		}
		got := computes.Load()
		want := int64(2 - i) // positions {0,2} -> cells {1,5}; position {1} -> cell {3}
		if got != want {
			t.Errorf("shard %d/2 computed %d cells, want %d (balanced over filtered positions)", i+1, got, want)
		}
		total += got
	}
	if total != 3 {
		t.Errorf("both shards computed %d cells total, want all 3 filtered cells", total)
	}
}

// TestShardedRunWritesManifestWithShardRecord checks a full-schedule
// sharded run records the schedule plus its own shard provenance, and
// that a second shard against the same store accumulates records.
func TestShardedRunWritesManifestWithShardRecord(t *testing.T) {
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
	if _, _, err := RunGrid(e, nil, Shard{Index: 2, Count: 3}); err != nil {
		t.Fatal(err)
	}
	m, ok := s.LoadManifest(spec.ID, spec.Seed)
	if !ok {
		t.Fatal("sharded full-schedule run must write the manifest")
	}
	if len(m.Shards) != 1 || m.Shards[0] != (resultstore.ShardRecord{Index: 2, Count: 3}) {
		t.Fatalf("manifest shards = %+v, want [{2 3}]", m.Shards)
	}
	ClearMemo()
	if _, _, err := RunGrid(e, nil, Shard{Index: 0, Count: 3}); err != nil {
		t.Fatal(err)
	}
	m, _ = s.LoadManifest(spec.ID, spec.Seed)
	want := []resultstore.ShardRecord{{Index: 0, Count: 3}, {Index: 2, Count: 3}}
	if len(m.Shards) != 2 || m.Shards[0] != want[0] || m.Shards[1] != want[1] {
		t.Fatalf("manifest shards after second shard = %+v, want %+v", m.Shards, want)
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
		if err := os.Remove(s.CellPath(spec.CellKey(spec.CellAt(i)))); err != nil {
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
	if _, _, err := RunGrid(e, Filter{"modle": {"ma"}}, Shard{}); err == nil || !strings.Contains(err.Error(), "model, recipe") {
		t.Errorf("RunGrid unknown-axis error = %v, want the axis list", err)
	}
	// Scalar experiments say so rather than listing nothing.
	scalar, _ := Get("fig1")
	if err := scalar.Spec().ValidateFilter(Filter{"model": {"x"}}); err == nil || !strings.Contains(err.Error(), "no axes") {
		t.Errorf("scalar ValidateFilter = %v, want a no-axes explanation", err)
	}
}
