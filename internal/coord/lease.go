// Lease table and schedule state. The coordinator owns a flat set of
// work items — one per distinct cell fingerprint across the scheduled
// experiments (experiments sharing a grid share cells, exactly like
// the local memo) — queued by model group: every pending cell of one
// model, a cell without a model being a group of its own. A worker
// without unsent cells that asks for one (a lease request, or a push
// with Next) is granted the group with the most pending cells, and
// each following ask is sent the grant's next cell, so a worker builds,
// warms and references each model it is granted once, and a fleet pays
// one setup per model. A grant has one deadline, renewed by each answer
// that sends one of its cells and each push; when it expires, only a
// cell its worker was sent and did not push counts an expiry, so a
// crashed or wedged worker costs one timeout rather than the sweep,
// and its unpushed cells requeue. Cells whose push reports a
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
	// manifest is the owning grid's store manifest, read once in New:
	// pushes are checked against its recorded kernel variants (nil: the
	// store has none, and the grid is unchecked).
	manifest *resultstore.Manifest
	// index is the row-major cell index within exp's grid.
	index int
	// key is the human-readable label, fp the content address.
	key string
	fp  string
	// model is the cell's model (harness.GridSpec.CellModels; "" for a
	// grid without one): the unit whose setup a worker pays once per
	// process, and so the grant unit.
	model string

	state itemState
	// expiries counts lease timeouts so a cell that keeps killing its
	// workers is eventually declared failed rather than requeued
	// forever.
	expiries int
	// failMsg is a failed cell's pushed error; empty when its expiries
	// failed it.
	failMsg string
}

// group returns the key of the item's model group in the pending
// queue: its model, or its own fingerprint when it has none.
func (it *workItem) group() string {
	if it.model != "" {
		return it.model
	}
	return it.fp
}

// compareItems orders cells by (model, exp, index): a group's compute
// order, and the tie-break between groups of equal size.
func compareItems(a, b *workItem) int {
	if c := strings.Compare(a.model, b.model); c != 0 {
		return c
	}
	if c := strings.Compare(a.exp, b.exp); c != 0 {
		return c
	}
	return cmp.Compare(a.index, b.index)
}

// grantRec is one model group leased to one worker.
type grantRec struct {
	// id names the grant in every lease answer (Lease.ID) and push.
	id     string
	worker string
	// cells are the group's cells in compute order; the first sent have
	// been handed to the worker, the rest are reserved for it.
	cells    []*workItem
	sent     int
	deadline time.Time
}

// next skips the reserved cells a late push has settled since the
// grant was made and reports whether a cell is left to send.
func (g *grantRec) next() bool {
	for g.sent < len(g.cells) && g.cells[g.sent].state != stateLeased {
		g.sent++
	}
	return g.sent < len(g.cells)
}

// outstanding counts the grant's cells still leased: sent and not yet
// pushed, or reserved.
func (g *grantRec) outstanding() int {
	n := 0
	for _, it := range g.cells {
		if it.state == stateLeased {
			n++
		}
	}
	return n
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

// takeGroupLocked removes the next group to grant from the pending
// queue and returns its cells in compute order, or nil when no cell is
// pending. Each group keeps only its pending cells (a late push may
// have settled a queued one) and a group left empty leaves the queue.
// The next group is the one with the most cells, ties broken by
// compareItems on any one cell of each (named groups differ by model,
// and a model-less group is one cell), so the choice is deterministic
// for a given queue.
func (c *Coordinator) takeGroupLocked() []*workItem {
	var best []*workItem
	for k, g := range c.pending {
		g = slices.DeleteFunc(g, func(it *workItem) bool { return it.state != statePending })
		if len(g) == 0 {
			delete(c.pending, k)
			continue
		}
		c.pending[k] = g
		if best == nil || len(g) > len(best) || len(g) == len(best) && compareItems(g[0], best[0]) < 0 {
			best = g
		}
	}
	if best == nil {
		return nil
	}
	delete(c.pending, best[0].group())
	slices.SortFunc(best, compareItems)
	return best
}

// releaseLocked renews g's deadline and, with unsent, requeues the
// cells it has not sent. Once nothing of g is left to send or push, g
// is settled and leaves the lease table.
func (c *Coordinator) releaseLocked(g *grantRec, unsent bool) {
	g.deadline = c.cfg.Clock().Add(c.cfg.LeaseTTL)
	if unsent {
		for _, it := range g.cells[g.sent:] {
			if it.state == stateLeased {
				c.requeueLocked(it)
			}
		}
		g.cells = g.cells[:g.sent]
	}
	if !g.next() && g.outstanding() == 0 {
		delete(c.grants, g.id)
	}
}

// requeueLocked puts a cell back in its group of the pending queue.
func (c *Coordinator) requeueLocked(it *workItem) {
	it.state = statePending
	k := it.group()
	c.pending[k] = append(c.pending[k], it)
}
