// Generic grid executor: the single place that owns cell fan-out,
// in-process memoization and persistence for every experiment. An
// experiment only declares its schedule (Spec), its pure per-cell
// computation (RunCell) and its presentation (Render); the executor
// fans the selected cells out over the bounded sweep worker pool
// (model-affine claims, sweep.go; one model session per worker,
// session.go), consults the memo and the result store per cell, and
// persists fresh results — so an interrupted sweep resumes from its
// completed cells on the next invocation, for every grid experiment by
// construction. A full-schedule run records its grid's manifest
// (Store.RecordSchedule) before any cell runs, and the first fresh
// cell stamps the active kernel tier into it (Store.StampVariants): a
// grid recorded under another tier serves its stored cells but
// computes and stores none.

package harness

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"fp8quant/internal/evalx"
	"fp8quant/internal/resultstore"
	"fp8quant/internal/tensor/kernels"
)

// ErrNotSelected marks the cells of a filtered run that were excluded
// by the filter; renderers skip them like any other errored cell.
const ErrNotSelected = "cell not selected by the filter"

// Run executes the experiment end to end: every grid cell through the
// cache layers on the sweep worker pool, then Render.
//
//fp8vet:ignore unused coord's and the root package's tests run whole experiments
func Run(e Experiment) *Report {
	g, _, err := RunGrid(e, nil)
	if err != nil {
		// With a nil filter, only a kernel-tier conflict; keep the
		// report well-formed.
		return &Report{Text: "error: " + err.Error(), Values: map[string]float64{}}
	}
	return e.Render(g)
}

// Shard is an empty placeholder for RunGrid's trailing argument. It
// has no fields and the executor ignores it: it exists only so the
// end-to-end benchmark module's call in bench/child.go, which passes
// Shard{}, keeps compiling until that module is next re-baselined.
type Shard struct{}

// RunGrid evaluates the cells of e selected by the filter (nil or
// empty = all) and returns the grid plus the selected row-major
// indices. Unselected cells stay zero-valued in the grid. A non-empty
// filter that matches no cell, or one naming an axis the grid does not
// declare, is an error. So is a grid whose manifest records another
// kernel tier than the active one, once a cell is not in the store:
// then no cell is computed or stored (Store.StampVariants).
func RunGrid(e Experiment, f Filter, _ ...Shard) (*Grid, []int, error) {
	spec := e.Spec()
	n := spec.NumCells()
	if err := spec.ValidateFilter(f); err != nil {
		return nil, nil, err
	}
	sel := spec.Select(f)
	if len(f) > 0 && len(sel) == 0 {
		// Covers axis-less (scalar) experiments too: a filter can never
		// apply to them, and succeeding silently would hide typos.
		return nil, nil, fmt.Errorf("filter %q matches none of %s's %d cells", f.String(), e.ID(), n)
	}
	g := &Grid{Spec: spec, Results: make([]evalx.Result, n)}
	if len(sel) < n {
		// Unselected cells must not masquerade as successfully
		// evaluated zero results: a renderer handed a partial grid
		// would fold them into its aggregates. The Err sentinel makes
		// every renderer skip them by the existing convention.
		for i := range g.Results {
			g.Results[i] = evalx.Result{Err: ErrNotSelected}
		}
	}
	if len(sel) == 0 {
		return g, sel, nil
	}
	// A full-schedule run knows the complete cell set; record it so
	// coverage tooling can reason about the sweep, an interrupted one
	// included, without re-deriving the spec.
	s := Store()
	if s != nil && len(sel) == n {
		if _, err := s.RecordSchedule(ManifestFor(spec)); err != nil {
			fmt.Fprintf(os.Stderr, "warning: manifest write failed: %v\n", err)
		}
	}
	// Only a fresh cell carries the active tier's bits into the store,
	// so the first one stamps it; a conflict refuses every fresh cell.
	var stampErr error
	stamp := sync.OnceFunc(func() {
		stampErr = s.StampVariants(spec.ID, spec.Seed, []string{string(kernels.Active())})
	})
	var done atomic.Int64
	reportProgress(e.ID(), 0, len(sel))
	forEachCell(spec.CellModels(sel), func(k int, s *Session) {
		c := spec.CellAt(sel[k])
		c.session = s
		g.Results[sel[k]], _ = cachedCellFresh(spec.CellKey(c).Addr(), func() (evalx.Result, bool) {
			if stamp(); stampErr != nil {
				return evalx.Result{}, false
			}
			return runCellSafe(e, spec, c), true
		})
		reportProgress(e.ID(), int(done.Add(1)), len(sel))
	})
	if stampErr != nil {
		return nil, nil, stampErr
	}
	return g, sel, nil
}

// ComputeCell evaluates the idx-th row-major cell of e's grid, whose
// address a the caller derived from e's spec
// (spec.CellKey(spec.CellAt(idx)).Addr()), on the worker's session s
// through the cache layers (memo, then store, then compute + persist)
// and returns its result and whether it was computed fresh rather than
// served from a cache. It is the lease-driven entry point used by
// coordinator workers: the coordinator hands out cell indices, the
// worker checks the cell's address against the lease, computes exactly
// that cell — panic-isolated like any pool cell — and pushes the
// payload back. A worker passes the same s for all its cells, so a
// granted group's cells share one network; nil serves the cell alone.
// The fresh/cached flag decides whether a worker's push carries its
// kernel variant (a cache hit says nothing about which tier computed
// the stored bytes).
func ComputeCell(e Experiment, idx int, a resultstore.Addr, s *Session) (evalx.Result, bool) {
	spec := e.Spec()
	if idx < 0 || idx >= spec.NumCells() {
		panic(fmt.Sprintf("harness: ComputeCell index %d out of range for %s's %d cells", idx, e.ID(), spec.NumCells()))
	}
	c := spec.CellAt(idx)
	c.session = s
	return cachedCellFresh(a, func() (evalx.Result, bool) {
		return runCellSafe(e, spec, c), true
	})
}

// runCellSafe converts a RunCell panic into an Err-marked result.
// Cells run on pool worker goroutines, where an escaped panic would
// kill the whole process — a caller's deferred recover only covers its
// own goroutine — so this is what makes "one failing cell/experiment
// cannot abort the batch" hold at any worker count. Err results are
// never persisted, so a code fix recomputes the cell.
func runCellSafe(e Experiment, spec GridSpec, c Cell) (r evalx.Result) {
	defer func() {
		if p := recover(); p != nil {
			r = evalx.Result{Err: fmt.Sprintf("panic in cell %s: %v", spec.KeyString(c), p)}
		}
	}()
	return e.RunCell(c)
}

// SubGridReport renders the generic report for a filtered run: one row
// per selected cell, with whatever the cell carries (accuracy quartet
// and/or named metrics).
func SubGridReport(e Experiment, g *Grid, sel []int) *Report {
	tb := newTable("cell", "qacc", "rel loss", "pass", "metrics")
	vals := map[string]float64{}
	for _, i := range sel {
		c := g.Spec.CellAt(i)
		r := g.Results[i]
		key := g.Spec.KeyString(c)
		if r.Err != "" {
			tb.add(key, "-", "-", "-", "error: "+r.Err)
			continue
		}
		tb.add(key, fmt.Sprintf("%.4f", r.QAcc), fmt.Sprintf("%.2f%%", r.RelLoss*100),
			fmt.Sprintf("%v", r.Pass), formatMetrics(r.Metrics))
		vals["qacc_"+key] = r.QAcc
		vals["relloss_"+key] = r.RelLoss
		for name, v := range r.Metrics {
			vals[name+"_"+key] = v
		}
	}
	text := fmt.Sprintf("%s — %s\nsub-grid: %d of %d cells\n\n%s",
		e.ID(), e.Title(), len(sel), g.Spec.NumCells(), tb.String())
	return &Report{Text: text, Values: vals}
}

// formatMetrics renders a metrics map as "k=v k=v" in sorted key order.
func formatMetrics(m map[string]float64) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	for i, k := range keys {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprintf("%s=%.4g", k, m[k])...)
	}
	return string(b)
}

// ManifestFor derives a grid's full schedule manifest from its spec —
// the same manifest a completed run records. Coverage tooling uses it
// when a store predates manifests or the sweep never started.
func ManifestFor(spec GridSpec) resultstore.Manifest {
	m := resultstore.Manifest{Grid: spec.ID, Seed: spec.Seed, Schema: resultstore.SchemaVersion}
	for _, a := range spec.Axes {
		m.Axes = append(m.Axes, resultstore.ManifestAxis{Name: a.Name, Values: a.Values})
	}
	n := spec.NumCells()
	m.Cells = make([]string, n)
	for i := 0; i < n; i++ {
		m.Cells[i] = spec.CellKey(spec.CellAt(i)).Fingerprint()
	}
	return m
}

// progressFn receives (experiment id, cells done, cells selected)
// updates while a grid executes; installed by fp8bench for its
// progress line. Called from worker goroutines — must be safe for
// concurrent use.
var progressFn atomic.Pointer[func(id string, done, total int)]

// SetProgress installs (or, with nil, removes) the cell-progress
// callback.
func SetProgress(fn func(id string, done, total int)) {
	if fn == nil {
		progressFn.Store(nil)
		return
	}
	progressFn.Store(&fn)
}

func reportProgress(id string, done, total int) {
	if p := progressFn.Load(); p != nil {
		(*p)(id, done, total)
	}
}
