// Lease table and schedule state. The coordinator owns a flat set of
// work items — one per distinct cell fingerprint across the scheduled
// experiments (experiments sharing a grid share cells, exactly like
// the local memo) — and hands them out as deadline-bearing leases.
// Leases go most-expensive-first by the learned cost model, with one
// bounded exception: a worker is handed a cell of a model it already
// holds (or of a model no live worker holds) when that cell's estimate
// is within affinityWindow of the queue head's, so a fleet builds,
// warms and references each model about once instead of once per
// worker. Expired leases requeue their cell, so a crashed or wedged
// worker costs one timeout rather than the sweep; cells whose push
// reports a deterministic failure are marked failed instead of looping
// forever.

package coord

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"fp8quant/internal/resultstore"
)

type itemState int

const (
	statePending itemState = iota
	stateLeased
	stateDone
	stateFailed
)

// workItem is one distinct grid cell to compute.
type workItem struct {
	// exp is the experiment id workers resolve the cell through (the
	// first scheduled experiment that declared it, for shared grids).
	exp string
	// grid/seed identify the owning grid schedule.
	grid string
	// index is the row-major cell index within exp's grid.
	index int
	// key is the human-readable label, fp the content address.
	key string
	fp  string
	// axes are the cell's coordinates, fed to the cost model.
	axes []resultstore.AxisValue
	// model is the cell's "model" axis value ("" for a grid without
	// one): the unit whose setup a worker pays once per process.
	model string
	// estMs is the cost model's estimate as of the last sortPending.
	estMs float64

	state itemState
	// expiries counts lease timeouts so a cell that keeps killing its
	// workers is eventually declared failed rather than requeued
	// forever.
	expiries int
	failMsg  string
}

// leaseRec is one outstanding lease.
type leaseRec struct {
	id       string
	item     *workItem
	worker   string
	deadline time.Time
}

// expSchedule is one experiment's view of the shared item set.
type expSchedule struct {
	id   string
	grid string
	// items holds the experiment's cells in row-major order (pointers
	// into the shared deduplicated set).
	items []*workItem
}

// progress summarizes a schedule's item states.
func (es *expSchedule) progress() ExpProgress {
	p := ExpProgress{Exp: es.id, Grid: es.grid, Total: len(es.items)}
	for _, it := range es.items {
		switch it.state {
		case stateDone:
			p.Done++
		case stateFailed:
			p.Failed++
		case stateLeased:
			p.Leased++
		default:
			p.Pending++
		}
	}
	if p.Total == 0 {
		p.Percent = 100
	} else {
		p.Percent = float64(p.Done) / float64(p.Total) * 100
	}
	return p
}

// sortPending orders the pending queue most-expensive-first by the cost
// model's estimates, tie-broken by (exp, index) so the order is
// deterministic for a given model state, and records each estimate on
// its item for pickLocked. Called lazily: estimates move with every
// observed push, so the queue re-sorts when marked dirty rather than on
// every observation.
func sortPending(pending []*workItem, cost *CostModel) {
	for _, it := range pending {
		it.estMs = cost.EstimateMs(it.fp, it.axes)
	}
	slices.SortStableFunc(pending, func(a, b *workItem) int {
		if a.estMs != b.estMs {
			return cmp.Compare(b.estMs, a.estMs)
		}
		if c := strings.Compare(a.exp, b.exp); c != 0 {
			return c
		}
		return cmp.Compare(a.index, b.index)
	})
}

// affinityWindow bounds how far down the sorted queue pickLocked looks:
// only cells estimated at no less than this share of the head's cost.
// Half keeps the longest cells early (the LPT tail guarantee), while a
// model's recipe cells, which cost alike, stay inside one window.
const affinityWindow = 0.5

// pickLocked returns the index in the sorted pending queue of the cell
// to lease to rec. Among the cells within affinityWindow of the head's
// estimate, in queue order, it takes the first cell of a model rec
// holds; else the first cell of a model no live worker holds; else the
// head. Cells without a model never match, so a grid with no model
// axis leases in plain LPT order.
func (c *Coordinator) pickLocked(rec *workerRec, now time.Time) int {
	floor := c.pending[0].estMs * affinityWindow
	fresh := -1
	for i, it := range c.pending {
		if it.estMs < floor {
			break
		}
		if it.model == "" {
			continue
		}
		if rec.models[it.model] {
			return i
		}
		if fresh < 0 && !c.modelTakenLocked(it.model, now) {
			fresh = i
		}
	}
	if fresh >= 0 {
		return fresh
	}
	return 0
}

// modelTakenLocked reports whether a worker that is not stale holds
// model. A stale worker's models count as free, so a fresh worker can
// take them over; they count again if the stale worker comes back.
func (c *Coordinator) modelTakenLocked(model string, now time.Time) bool {
	for name, rec := range c.workers {
		if rec.models[model] && !c.workerStaleLocked(name, now) {
			return true
		}
	}
	return false
}
