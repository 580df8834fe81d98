// Lease table and schedule state. The coordinator owns a flat set of
// work items — one per distinct cell fingerprint across the scheduled
// experiments (experiments sharing a grid share cells, exactly like
// the local memo) — and hands them out as deadline-bearing leases.
// Expired leases requeue their cell, so a crashed or wedged worker
// costs one timeout rather than the sweep; cells whose push reports a
// deterministic failure are marked failed instead of looping forever.

package coord

import (
	"sort"
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
// deterministic for a given model state. Called lazily: estimates move
// with every observed push, so the queue re-sorts when marked dirty
// rather than on every observation.
func sortPending(pending []*workItem, cost *CostModel) {
	type scored struct {
		it *workItem
		ms float64
	}
	sc := make([]scored, len(pending))
	for i, it := range pending {
		sc[i] = scored{it, cost.EstimateMs(it.fp, it.axes)}
	}
	sort.SliceStable(sc, func(i, j int) bool {
		if sc[i].ms != sc[j].ms {
			return sc[i].ms > sc[j].ms
		}
		if sc[i].it.exp != sc[j].it.exp {
			return sc[i].it.exp < sc[j].it.exp
		}
		return sc[i].it.index < sc[j].it.index
	})
	for i := range sc {
		pending[i] = sc[i].it
	}
}
