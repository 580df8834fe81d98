// Learned per-model cost model. The zoo's cell costs vary by two orders
// of magnitude (bloom_176b vs squeezenet), so leasing in naive
// row-major order routinely parks the most expensive model on whichever
// worker draws it last and stretches the sweep tail by minutes. The
// coordinator instead grants expensive model groups first —
// longest-processing-time-first is the classic 4/3-approximation for
// makespan on identical machines — estimating a group as its model's
// per-cell estimate times its pending cell count. The estimate is the
// model's mean pushed duration (an EMA), else the global mean, else a
// fixed default while nothing has been observed, so the very first run
// is merely ordered by group size, never wrong. The unit is the model,
// not the cell: a pushed cell is done and never estimated again, while
// a model's cost carries over to its cells in later sweeps and other
// grids (fig9 reads its model from a config axis).
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

// CostSidecarName is the sidecar file the model persists to.
const CostSidecarName = "costmodel.json"

// costSchemaVersion guards the sidecar layout; entries from other
// versions load as an empty model (the estimates re-learn in one run).
const costSchemaVersion = 2

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

// CostModel estimates per-cell run durations by model from observed
// pushes. Safe for concurrent use.
type CostModel struct {
	mu     sync.Mutex
	models map[string]CostEntry // model -> per-cell estimate
	all    CostEntry            // global aggregate
}

// NewCostModel returns an empty model.
func NewCostModel() *CostModel {
	return &CostModel{models: map[string]CostEntry{}}
}

// Observe records one computed cell duration of model ("" for a cell
// without one, which feeds only the global mean).
func (m *CostModel) Observe(model string, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	if ms < 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if model != "" {
		ent := m.models[model]
		ent.observe(ms)
		m.models[model] = ent
	}
	m.all.observe(ms)
}

// EstimateMs returns the model's best per-cell duration guess for
// model: its own estimate if seen, else the global mean, else the
// default.
func (m *CostModel) EstimateMs(model string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.models[model]; ok && e.N > 0 {
		return e.EMAms
	}
	if m.all.N > 0 {
		return m.all.EMAms
	}
	return defaultCostMs
}

// costSidecar is the persisted layout. encoding/json sorts map keys, so
// the sidecar bytes are deterministic for a given model state.
type costSidecar struct {
	Schema int                  `json:"schema"`
	Models map[string]CostEntry `json:"models"`
	All    CostEntry            `json:"all"`
}

// Persist writes the model to the store as a sidecar via the atomic
// temp+rename path.
func (m *CostModel) Persist(s *resultstore.Store) error {
	m.mu.Lock()
	b, err := json.Marshal(costSidecar{Schema: costSchemaVersion, Models: m.models, All: m.all})
	m.mu.Unlock()
	if err != nil {
		return fmt.Errorf("coord: %w", err)
	}
	return s.SaveSidecar(CostSidecarName, b)
}

// LoadCostModel reads a persisted model from the store sidecar. An
// absent, corrupt or schema-stale sidecar yields an empty model — the
// cost model is an optimization, never a correctness dependency.
func LoadCostModel(s *resultstore.Store) *CostModel {
	m := NewCostModel()
	b, ok := s.LoadSidecar(CostSidecarName)
	if !ok {
		return m
	}
	var sc costSidecar
	if json.Unmarshal(b, &sc) != nil || sc.Schema != costSchemaVersion {
		return m
	}
	maps.Copy(m.models, sc.Models)
	m.all = sc.All
	return m
}
