// Execution-plan free list. A plan is two scoped arenas whose chunks
// persist across forwards and models (nn.Plan), so any idle plan serves
// any sweep cell. A cell takes one before its network: a pooled network
// gets it installed, and a fresh one is built on it (models.BuildOn),
// so a model's first build runs its BatchNorm warm-up in the chunks the
// cell's forwards then reuse. The cell's forwards and its FP32 weight
// masters (the cell arena quant.Quantize carves from) reuse chunks an
// earlier cell already allocated, and the cell hands the plan back
// after Release has copied the masters home. The process holds one plan
// per concurrently running cell, and a plain mutex-guarded list (not
// sync.Pool) never lets GC drop a warm plan that the next cell would
// have to grow again.

package harness

import (
	"sync"

	"fp8quant/internal/nn"
)

var (
	plansMu   sync.Mutex
	freePlans []*nn.Plan
)

// takePlan returns an idle execution plan, or a new one when none is
// idle. The caller hands it back with putPlan once no network it
// serves still has it installed.
func takePlan() *nn.Plan {
	plansMu.Lock()
	defer plansMu.Unlock()
	n := len(freePlans)
	if n == 0 {
		return nn.NewPlan(nil)
	}
	p := freePlans[n-1]
	//fp8vet:ignore cellpurity mutex-guarded pool of scratch arenas; planned forwards and the masters copied into the cell arena are byte-identical whichever plan, warm or cold, a cell takes, so cell order cannot matter
	freePlans = freePlans[:n-1]
	return p
}

// putPlan returns p to the free list.
func putPlan(p *nn.Plan) {
	plansMu.Lock()
	//fp8vet:ignore cellpurity mutex-guarded pool of scratch arenas; planned forwards and the masters copied into the cell arena are byte-identical whichever plan, warm or cold, a cell takes, so cell order cannot matter
	freePlans = append(freePlans, p)
	plansMu.Unlock()
}

// clearPlans drops every idle plan, so the next cell starts cold.
func clearPlans() {
	plansMu.Lock()
	freePlans = nil
	plansMu.Unlock()
}
