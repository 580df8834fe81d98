// Learned per-cell cost model. The zoo's cell costs vary by two orders
// of magnitude (bloom_176b vs squeezenet), so leasing cells in naive
// row-major order routinely parks the most expensive model on whichever
// worker draws it last and stretches the sweep tail by minutes. The
// coordinator instead leases expensive model groups first (by their
// cells' summed estimates) — longest-processing-time-first is the
// classic 4/3-approximation for makespan on identical machines — using
// durations observed from completed pushes. Estimates fall back
// gracefully: exact cell → same axis value (a model's recipes cost
// alike) → global mean → a fixed default, so the very first run is
// merely unordered, never wrong.
//
// The model is operational state, not results: it is persisted as a
// store *sidecar* (atomic temp+rename, see resultstore.SaveSidecar) and
// never inside content-addressed payloads, so stored cells and rendered
// reports stay byte-identical whether a sweep ran locally or
// coordinated.

package coord

import (
	"encoding/json"
	"fmt"
	"maps"
	"sync"
	"time"

	"fp8quant/internal/resultstore"
)

// CostSidecarName is the default sidecar file the model persists to.
const CostSidecarName = "costmodel.json"

// costSchemaVersion guards the sidecar layout; entries from other
// versions load as an empty model (the estimates re-learn in one run).
const costSchemaVersion = 1

// costAlpha is the EMA smoothing factor for repeated observations of
// the same key: high enough to track real cost shifts (a kernel
// landing), low enough that one noisy VM stall does not dominate.
const costAlpha = 0.3

// defaultCostMs seeds estimates when nothing has ever been observed.
const defaultCostMs = 1000

// CostEntry is one learned duration estimate.
type CostEntry struct {
	// EMAms is the exponentially weighted mean duration in milliseconds.
	EMAms float64 `json:"ema_ms"`
	// N counts observations folded in.
	N int64 `json:"n"`
}

// observe folds one duration into the entry.
func (e *CostEntry) observe(ms float64) {
	if e.N == 0 {
		e.EMAms = ms
	} else {
		e.EMAms = costAlpha*ms + (1-costAlpha)*e.EMAms
	}
	e.N++
}

// CostModel estimates per-cell run durations from observed pushes.
// Safe for concurrent use.
type CostModel struct {
	mu    sync.Mutex
	cells map[string]CostEntry // cell fingerprint -> estimate
	axes  map[string]CostEntry // "axis=value" -> aggregate estimate
	all   CostEntry            // global aggregate
}

// NewCostModel returns an empty model.
func NewCostModel() *CostModel {
	return &CostModel{cells: map[string]CostEntry{}, axes: map[string]CostEntry{}}
}

// Observe records one computed cell duration under its fingerprint and
// axis coordinates.
func (m *CostModel) Observe(fp string, axes []resultstore.AxisValue, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	if ms < 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ent := m.cells[fp]
	ent.observe(ms)
	m.cells[fp] = ent
	for _, av := range axes {
		k := av.Axis + "=" + av.Value
		a := m.axes[k]
		a.observe(ms)
		m.axes[k] = a
	}
	m.all.observe(ms)
}

// EstimateMs returns the model's best duration guess for a cell:
// the exact fingerprint if seen, else the most expensive matching axis
// aggregate (the model axis dominates cost, and overestimating an
// unknown cell only moves it earlier — the safe direction for the
// tail), else the global mean, else the default.
func (m *CostModel) EstimateMs(fp string, axes []resultstore.AxisValue) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.cells[fp]; ok && e.N > 0 {
		return e.EMAms
	}
	best, found := 0.0, false
	for _, av := range axes {
		if a, ok := m.axes[av.Axis+"="+av.Value]; ok && a.N > 0 && a.EMAms > best {
			best, found = a.EMAms, true
		}
	}
	if found {
		return best
	}
	if m.all.N > 0 {
		return m.all.EMAms
	}
	return defaultCostMs
}

// costSidecar is the persisted layout. Both maps serialize through
// encoding/json, which sorts keys, so the sidecar bytes are
// deterministic for a given model state.
type costSidecar struct {
	Schema int                  `json:"schema"`
	Cells  map[string]CostEntry `json:"cells"`
	Axes   map[string]CostEntry `json:"axes"`
	All    CostEntry            `json:"all"`
}

// Persist writes the model to the store as a sidecar via the atomic
// temp+rename path.
func (m *CostModel) Persist(s *resultstore.Store, name string) error {
	m.mu.Lock()
	b, err := json.Marshal(costSidecar{Schema: costSchemaVersion, Cells: m.cells, Axes: m.axes, All: m.all})
	m.mu.Unlock()
	if err != nil {
		return fmt.Errorf("coord: %w", err)
	}
	return s.SaveSidecar(name, b)
}

// LoadCostModel reads a persisted model from the store sidecar. An
// absent, corrupt or schema-stale sidecar yields an empty model — the
// cost model is an optimization, never a correctness dependency.
func LoadCostModel(s *resultstore.Store, name string) *CostModel {
	m := NewCostModel()
	b, ok := s.LoadSidecar(name)
	if !ok {
		return m
	}
	var sc costSidecar
	if json.Unmarshal(b, &sc) != nil || sc.Schema != costSchemaVersion {
		return m
	}
	maps.Copy(m.cells, sc.Cells)
	maps.Copy(m.axes, sc.Axes)
	m.all = sc.All
	return m
}
