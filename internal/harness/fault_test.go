package harness

import (
	"testing"

	"fp8quant/internal/evalx"
	"fp8quant/internal/faultline"
	"fp8quant/internal/resultstore"
)

// armHarness arms a single rule on one harness failpoint and disarms on
// cleanup.
func armHarness(t *testing.T, pattern string, kind faultline.Kind) {
	t.Helper()
	err := faultline.Arm(faultline.Plan{Rules: []faultline.Rule{
		{Pattern: pattern, Kind: kind, Max: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultline.Disarm)
}

// TestPersistFailpointDegradesToWarning: an injected persist fault must
// not change the returned result or poison the memo — the cell is
// served, the store write is skipped with a warning, and once the
// fault clears a recompute persists normally.
func TestPersistFailpointDegradesToWarning(t *testing.T) {
	withCleanCache(t)
	s, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetStore(s)
	armHarness(t, "harness.cell.persist", faultline.KindErr)

	computes := 0
	k := cellTestKey("fault-persist")
	want := cellTestResult("fault-persist")
	compute := func() evalx.Result { computes++; return want }
	if r := cachedCell(k, compute); r.QAcc != want.QAcc {
		t.Fatalf("faulted persist changed the result: %+v", r)
	}
	if _, ok := s.Load(k.Addr()); ok {
		t.Fatal("cell persisted despite the injected persist fault")
	}
	// The memo still serves it within the process.
	if cachedCell(k, compute); computes != 1 {
		t.Fatalf("memo did not serve the un-persisted cell (computes = %d)", computes)
	}
	// A new "process" recomputes (the persist was lost — that is the
	// injected failure) and, with the budget spent, persists this time.
	ClearMemo()
	if cachedCell(k, compute); computes != 2 {
		t.Fatalf("recompute after lost persist: computes = %d, want 2", computes)
	}
	if _, ok := s.Load(k.Addr()); !ok {
		t.Fatal("cell not persisted after the fault budget was spent")
	}
}

// TestComputeFailpointNeverChangesValues: the compute-side failpoint
// discards injected errors — a fault there may delay or kill a run,
// never alter what a cell evaluates to.
func TestComputeFailpointNeverChangesValues(t *testing.T) {
	withCleanCache(t)
	armHarness(t, "harness.cell.compute", faultline.KindErr)
	k := cellTestKey("fault-compute")
	want := cellTestResult("fault-compute")
	r := cachedCell(k, func() evalx.Result { return want })
	if r.Err != "" || r.QAcc != want.QAcc {
		t.Fatalf("injected compute error leaked into the result: %+v", r)
	}
}
