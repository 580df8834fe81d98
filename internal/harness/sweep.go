// Sweep engine: the experiments evaluate grids of independent
// (model, recipe) cells — Table 2 alone is 75 models x 6 recipes. This
// file provides the bounded worker pool they all share. Cells are
// claimed dynamically for load balance (model costs vary by 100x across
// the zoo) but every result is written to its input-order slot, so
// reports are deterministic regardless of scheduling or worker count.

package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// sweepWorkers is the configured cell-level parallelism; 0 selects
// GOMAXPROCS. Set through SetWorkers (the fp8bench -workers flag).
var sweepWorkers atomic.Int64

// SetWorkers bounds the number of sweep cells evaluated concurrently.
// n <= 0 restores the default (GOMAXPROCS). Safe to call at any time;
// sweeps already in flight keep their pool size.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	sweepWorkers.Store(int64(n))
}

// Workers reports the effective sweep worker count.
func Workers() int {
	if n := int(sweepWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// forEachCell runs cell(i) for every i in [0, n) across the bounded
// worker pool. cell must confine its writes to per-index state.
func forEachCell(n int, cell func(i int)) {
	workers := Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			cell(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				cell(i)
			}
		}()
	}
	wg.Wait()
}
