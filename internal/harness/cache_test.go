package harness

import (
	"errors"
	"reflect"
	"testing"

	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
	"fp8quant/internal/resultstore"
)

// cachedCell is cachedCellFresh without the provenance flag.
func cachedCell(k resultstore.CellKey, compute func() evalx.Result) evalx.Result {
	r, _ := cachedCellFresh(k.Addr(), func() (evalx.Result, bool) { return compute(), true })
	return r
}

// withCleanCache isolates a test from the package-level cache state.
func withCleanCache(t *testing.T) {
	t.Helper()
	ClearMemo()
	t.Cleanup(func() {
		SetStore(nil)
		ClearMemo()
	})
}

func cellTestKey(model string) resultstore.CellKey {
	return resultstore.CellKey{
		Grid: "cache-test",
		Cell: []resultstore.AxisValue{
			{Axis: "model", Value: model},
			{Axis: "recipe", Value: "r1"},
		},
		Schema: resultstore.SchemaVersion,
	}
}

func cellTestResult(model string) evalx.Result {
	return evalx.Result{
		Model: model, Domain: models.CV, Recipe: "r1",
		BaseAcc: 1, QAcc: 0.993, RelLoss: 0.007, Pass: true,
		Metrics: map[string]float64{"aux": 1.25},
	}
}

// TestCachedCellMemoizes checks the in-process layer: the second call
// with the same key must not recompute, with or without a disk store.
func TestCachedCellMemoizes(t *testing.T) {
	withCleanCache(t)
	SetStore(nil)
	computes := 0
	compute := func() evalx.Result { computes++; return cellTestResult("m1") }
	k := cellTestKey("m1")
	r1 := cachedCell(k, compute)
	r2 := cachedCell(k, compute)
	if computes != 1 {
		t.Fatalf("computed %d times, want 1", computes)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("second call should return the memoized result")
	}
}

// TestCachedCellPersistsAcrossProcesses simulates two fp8bench
// invocations sharing a cache dir: the memo is cleared (process
// boundary) and the second "process" must load from disk, not compute.
func TestCachedCellPersistsAcrossProcesses(t *testing.T) {
	withCleanCache(t)
	s, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetStore(s)
	computes := 0
	compute := func() evalx.Result { computes++; return cellTestResult("m1") }
	k := cellTestKey("m1")
	first := cachedCell(k, compute)

	ClearMemo() // process boundary
	second := cachedCell(k, compute)
	if computes != 1 {
		t.Fatalf("computed %d times, want 1 (second run must hit the store)", computes)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Writes != 1 {
		t.Errorf("store stats = %+v, want 1 hit / 1 write", st)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("store round trip changed the result: %+v vs %+v", second, first)
	}
}

// TestCachedCellDistinctKeys checks two keys never share a result.
func TestCachedCellDistinctKeys(t *testing.T) {
	withCleanCache(t)
	SetStore(nil)
	computes := 0
	compute := func() evalx.Result { computes++; return cellTestResult("m1") }
	k2 := cellTestKey("m1")
	k2.Seed = 7
	cachedCell(cellTestKey("m1"), compute)
	cachedCell(k2, compute)
	if computes != 2 {
		t.Fatalf("distinct keys computed %d times, want 2", computes)
	}
}

// TestCachedCellErrNotPersisted checks failed cells are memoized for
// the process but never written to the store: after a process
// boundary, a failed cell must recompute.
func TestCachedCellErrNotPersisted(t *testing.T) {
	withCleanCache(t)
	s, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetStore(s)
	computes := 0
	compute := func() evalx.Result {
		computes++
		return evalx.Failed("m1", "r1", errors.New("build failed"))
	}
	k := cellTestKey("m1")
	cachedCell(k, compute)
	cachedCell(k, compute) // memoized within the process
	if computes != 1 {
		t.Fatalf("computed %d times before the boundary, want 1", computes)
	}
	if st := s.Stats(); st.Writes != 0 {
		t.Errorf("errored cell was persisted: %+v", st)
	}
	ClearMemo() // process boundary
	cachedCell(k, compute)
	if computes != 2 {
		t.Fatalf("errored cell not recomputed after process boundary: %d computes", computes)
	}
}
