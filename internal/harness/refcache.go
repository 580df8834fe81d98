// FP32 reference cache. Cells are pure — each runs on an FP32 network
// equal to a fresh build (session.go) — and the FP32 reference a cell
// is judged against is pure data, deterministic per key: a model's
// reference, shared by every recipe cell of that model, and the fig6
// and table4 generations, shared by every cell of their grid.
// Computing each once per process keeps the per-cell API from
// multiplying the reference passes by the recipe-axis length.

package harness

import (
	"sync"

	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
)

// refCache maps a model name, or the id of a grid with a reference of
// its own (fig6, table4; no model has such a name), to its *refEntry.
var refCache sync.Map

type refEntry struct {
	once sync.Once
	val  any
	done bool // compute returned
}

// cachedRef returns what compute returns for key, computed at most once
// per process: every caller gets the first computation's value. A
// computation that panics propagates and leaves no entry behind, so a
// later call computes anew instead of reading a value that was never
// set. It allocates an entry only for a key it has not seen.
func cachedRef(key string, compute func() any) any {
	for {
		e, ok := refCache.Load(key)
		if !ok {
			e, _ = refCache.LoadOrStore(key, &refEntry{})
		}
		ent := e.(*refEntry)
		ent.once.Do(func() {
			defer func() {
				if !ent.done {
					refCache.CompareAndDelete(key, ent)
				}
			}()
			ent.val = compute()
			ent.done = true
		})
		if ent.done {
			return ent.val
		}
		// The call that ran ent's computation panicked and dropped ent;
		// compute through a fresh entry.
	}
}

// modelRef returns the FP32 reference for the named model. The caller's
// net is used only if the reference is not cached yet; references are
// deterministic (the forward pass does not mutate the network), so
// every caller sees the same data.
func modelRef(name string, net *models.Network) evalx.Reference {
	return cachedRef(name, func() any { return evalx.ComputeReference(net) }).(evalx.Reference)
}

// clearRefs drops every cached reference (ClearMemo's process-boundary
// simulation).
func clearRefs() {
	refCache.Range(func(k, _ any) bool {
		refCache.Delete(k)
		return true
	})
}
