// Execution-plan free list. A plan is two scoped arenas whose chunks
// persist across forwards and models (nn.Plan), so any idle plan serves
// any sweep cell: a cell takes one, its forwards and its FP32 weight
// masters (the cell arena quant.Quantize carves from) reuse chunks an
// earlier cell already allocated, and it hands the plan back after
// Release has copied the masters home. The
// process holds one plan per concurrently running cell, and a plain
// mutex-guarded list (not sync.Pool) never lets GC drop a warm plan
// that the next cell would have to grow again.

package harness

import (
	"sync"

	"fp8quant/internal/models"
	"fp8quant/internal/nn"
)

var (
	plansMu   sync.Mutex
	freePlans []*nn.Plan
)

// withPlan installs an idle execution plan on net and returns a release
// function that detaches the plan and returns it to the free list.
// Planned forwards are byte-identical to unplanned ones, so cell results
// are unaffected.
func withPlan(net *models.Network) func() {
	plansMu.Lock()
	var p *nn.Plan
	if n := len(freePlans); n > 0 {
		//fp8vet:ignore cellpurity mutex-guarded pool of scratch arenas; planned forwards and the masters copied into the cell arena are byte-identical whichever plan, warm or cold, a cell takes, so cell order cannot matter
		p, freePlans = freePlans[n-1], freePlans[:n-1]
	} else {
		p = nn.NewPlan(nil)
	}
	plansMu.Unlock()
	net.InstallPlan(p)
	return func() {
		net.InstallPlan(nil)
		plansMu.Lock()
		//fp8vet:ignore cellpurity mutex-guarded pool of scratch arenas; planned forwards and the masters copied into the cell arena are byte-identical whichever plan, warm or cold, a cell takes, so cell order cannot matter
		freePlans = append(freePlans, p)
		plansMu.Unlock()
	}
}

// clearPlans drops every idle plan, so the next cell starts cold.
func clearPlans() {
	plansMu.Lock()
	freePlans = nil
	plansMu.Unlock()
}
