// Result caching: grid cells are memoized per process (table2, fig4
// and fig5 all consume the same 75x6 sweep grid) and, when a store is
// configured, persisted to disk per cell so later fp8bench invocations
// resume from completed cells across processes. Entries are keyed by
// content address — grid id, axis coordinates, seed and schema version
// — so a stale store can only miss, never corrupt a report.

package harness

import (
	"fmt"
	"os"
	"sync"

	"fp8quant/internal/evalx"
	"fp8quant/internal/faultline"
	"fp8quant/internal/models"
	"fp8quant/internal/resultstore"
)

var (
	cacheMu sync.Mutex
	// store is the optional disk-backed result store (nil = disabled).
	store *resultstore.Store
	// memo is the in-process cell cache, keyed by cell fingerprint.
	memo = map[string]evalx.Result{}
)

// SetStore installs (or, with nil, removes) the persistent result
// store consulted by the grid executor. Call before running
// experiments; cells already memoized in-process are kept.
func SetStore(s *resultstore.Store) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	store = s
}

// Store returns the configured persistent result store (nil if none).
func Store() *resultstore.Store {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return store
}

// ClearMemo drops every in-process cache — the cell memo, the FP32
// references (refcache.go) and the models' memoized BatchNorm warm-ups
// (the disk store is untouched). Tests use it to simulate a
// process boundary and force store round trips and cold builds;
// long-lived embedders can use it to release sweep memory.
//
//fp8vet:ignore unused the bench module's tests force cold builds with it
func ClearMemo() {
	cacheMu.Lock()
	memo = map[string]evalx.Result{}
	cacheMu.Unlock()
	clearRefs()
	models.ClearMemo()
}

// lookupCell returns the addressed cell's result if the memo or the
// store already holds it, without ever computing; an absent cell counts
// a store miss.
func lookupCell(a resultstore.Addr) (evalx.Result, bool) {
	cacheMu.Lock()
	r, ok := memo[a.FP]
	s := store
	cacheMu.Unlock()
	if ok {
		return r, true
	}
	if r, ok := s.Load(a); ok {
		cacheMu.Lock()
		memo[a.FP] = r
		cacheMu.Unlock()
		return r, true
	}
	return evalx.Result{}, false
}

// cachedCellFresh returns the result for the addressed cell, trying the
// in-process memo, then the disk store, then computing it (and
// persisting the result). Errored cells (Err != "") are memoized for
// the process but never persisted — a deterministic failure is cheap
// to re-derive and must not outlive the code that caused it.
// Concurrent callers with the same key may compute twice; both arrive
// at identical results, so last-write-wins is safe. The flag reports
// whether the cell was computed fresh rather than served from a cache
// layer — the provenance signal: only fresh cells carry the current
// kernel variant's bits into the store. A compute that answers false
// refuses the cell: nothing is memoized or persisted, and the zero
// result comes back as not fresh. Every layer keys the cell by a.FP,
// so the caller's CellKey.Addr is the cell's only hash.
func cachedCellFresh(a resultstore.Addr, compute func() (evalx.Result, bool)) (evalx.Result, bool) {
	if r, ok := lookupCell(a); ok {
		return r, false
	}
	// A compute-side failpoint for chaos runs: delay and crash rules act
	// inside Hit; an injected *error* here is deliberately discarded,
	// because cell results must stay a pure function of the key — faults
	// may slow, kill or un-persist a cell, never change its value (and
	// the coordinator treats reported cell failures as permanent).
	_ = faultline.Hit("harness.cell.compute")
	r, ok := compute()
	if !ok {
		return evalx.Result{}, false
	}
	if r.Err == "" {
		err := faultline.Hit("harness.cell.persist")
		if err == nil {
			err = Store().Save(a, r)
		}
		if err != nil {
			// A failed persist (full/unwritable cache dir) must not go
			// unnoticed: without it every invocation repays the sweep.
			fmt.Fprintf(os.Stderr, "warning: result store write failed: %v\n", err)
		}
	}
	cacheMu.Lock()
	memo[a.FP] = r
	cacheMu.Unlock()
	return r, true
}
