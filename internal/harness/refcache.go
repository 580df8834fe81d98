// Per-model FP32 reference cache. Cells are pure — each runs on an FP32
// network equal to a fresh build (session.go) — and the FP32 reference
// a model is judged against is pure data, deterministic per model name,
// and shared by every recipe cell of that model. Computing it once per
// process keeps the per-cell API from multiplying the reference passes
// by the recipe-axis length.

package harness

import (
	"sync"

	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
)

var refCache sync.Map // model name -> *refEntry

type refEntry struct {
	once sync.Once
	ref  evalx.Reference
}

// modelRef returns the FP32 reference for the named model, computed at
// most once per process from an FP32 network of the model. The
// caller's net is used only for the first computation; references are
// deterministic (the forward pass does not mutate the network), so
// every caller sees the same data. It allocates an entry only for a
// model it has not seen.
func modelRef(name string, net *models.Network) evalx.Reference {
	e, ok := refCache.Load(name)
	if !ok {
		e, _ = refCache.LoadOrStore(name, &refEntry{})
	}
	ent := e.(*refEntry)
	ent.once.Do(func() { ent.ref = evalx.ComputeReference(net) })
	return ent.ref
}

// clearRefs drops the reference cache (ClearMemo's process-boundary
// simulation).
func clearRefs() {
	refCache.Range(func(k, _ any) bool {
		refCache.Delete(k)
		return true
	})
}
