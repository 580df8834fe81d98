// Lease table and schedule state. The coordinator owns a flat set of
// work items — one per distinct cell fingerprint across the scheduled
// experiments (experiments sharing a grid share cells, exactly like
// the local memo) — and leases them out one model group per grant:
// every pending cell of one model, the most expensive group first by
// the learned cost model. The grant reserves the whole group for its
// worker, and each of the worker's lease requests hands it the group's
// next cell, so a worker builds, warms and references each model it is
// granted once, and a fleet pays one setup per model. Cells without a
// model are groups of one. Each cell keeps its own lease and deadline:
// expiry requeues only the group's unpushed cells and counts against
// the one the worker was computing, so a crashed or wedged worker
// costs one timeout rather than the sweep; cells whose push reports a
// deterministic failure are marked failed instead of looping forever.

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
	// one): the unit whose setup a worker pays once per process, and
	// so the lease unit.
	model string
	// groupMs is the summed estimate of the cell's model group (its own
	// without a model) as of the last sortPending.
	groupMs float64

	state itemState
	// expiries counts lease timeouts so a cell that keeps killing its
	// workers is eventually declared failed rather than requeued
	// forever.
	expiries int
	failMsg  string
}

// leaseRec is one outstanding cell lease.
type leaseRec struct {
	id       string
	item     *workItem
	worker   string
	deadline time.Time
	// sent is set once a lease answer has handed the cell to its
	// worker; until then the cell is only reserved for it.
	sent bool
	// group is every lease of this one's grant, in the order the worker
	// computes them; a member is outstanding while c.leases holds it.
	group []*leaseRec
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

// sortPending orders the pending queue by model group, the lease
// unit: groups with the largest summed cost-model estimate first
// (longest-processing-time-first over groups), ties broken by (model,
// exp, index), so each group is contiguous and in the order its worker
// computes it, and the order is deterministic for a given model state.
// Called lazily: estimates move with every observed push, so the queue
// re-sorts when marked dirty rather than on every observation.
func sortPending(pending []*workItem, cost *CostModel) {
	sums := map[string]float64{}
	for _, it := range pending {
		it.groupMs = cost.EstimateMs(it.fp, it.axes)
		sums[it.model] += it.groupMs
	}
	for _, it := range pending {
		if it.model != "" {
			it.groupMs = sums[it.model]
		}
	}
	slices.SortFunc(pending, func(a, b *workItem) int {
		if a.groupMs != b.groupMs {
			return cmp.Compare(b.groupMs, a.groupMs)
		}
		if c := strings.Compare(a.model, b.model); c != 0 {
			return c
		}
		if c := strings.Compare(a.exp, b.exp); c != 0 {
			return c
		}
		return cmp.Compare(a.index, b.index)
	})
}

// groupEnd returns the end of the model group starting at pending[i]
// in a sorted queue: the run of cells sharing its model, or the cell
// alone when it has none.
func groupEnd(pending []*workItem, i int) int {
	j := i + 1
	for pending[i].model != "" && j < len(pending) && pending[j].model == pending[i].model {
		j++
	}
	return j
}

// renewLocked gives a group's outstanding leases a fresh deadline and
// reports whether any is left; with release, the ones never sent to
// the worker requeue instead.
func (c *Coordinator) renewLocked(group []*leaseRec, now time.Time, release bool) bool {
	left := false
	for _, m := range group {
		switch {
		case c.leases[m.id] != m:
		case release && !m.sent:
			delete(c.leases, m.id)
			if m.item.state == stateLeased {
				c.requeueLocked(m.item)
			}
		default:
			m.deadline, left = now.Add(c.cfg.LeaseTTL), true
		}
	}
	return left
}

// requeueLocked puts a leased cell back in the pending queue.
func (c *Coordinator) requeueLocked(it *workItem) {
	it.state = statePending
	c.pending = append(c.pending, it)
	c.dirty = true
}
