// Sweep engine: the experiments evaluate grids of independent
// (model, recipe) cells — Table 2 alone is 75 models x 6 recipes. This
// file provides the bounded worker pool they all share. Cells are
// claimed dynamically for load balance (model costs vary by 100x across
// the zoo) but every result is written to its input-order slot, so
// reports are deterministic regardless of scheduling or worker count.
//
// Claims are model-affine. A worker keeps to the model it ran last and
// moves on to a model no other worker is running, so each model is
// built about once per run (each worker's Session hands a model's next
// cell the network its last cell released) instead of once per worker
// that touches it. Only the tail, when every unclaimed cell belongs to
// a running model, puts two workers on one model. Grids without a
// model axis run in ascending order.

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

// forEachCell runs cell(k, s) for every k in [0, len(models)) across
// the bounded worker pool, where models[k] is cell k's model ("" for a
// grid without a model axis). Each worker claims its cells through
// nextCell and runs them on its own Session s. cell must confine its
// writes to per-index state and s.
func forEachCell(models []string, cell func(k int, s *Session)) {
	var mu sync.Mutex
	claimed := make([]bool, len(models))
	running := map[string]int{}
	work := func() {
		var s Session
		k := -1
		for {
			mu.Lock()
			last := ""
			if k >= 0 {
				last = models[k]
				running[last]--
			}
			k = nextCell(models, claimed, running, last)
			if k >= 0 {
				claimed[k] = true
				running[models[k]]++
			}
			mu.Unlock()
			if k < 0 {
				return
			}
			cell(k, &s)
		}
	}
	workers := min(Workers(), len(models))
	if workers <= 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// nextCell returns the cell a worker whose last cell ran model last
// claims next, or -1 when every cell is claimed. running counts the
// workers running each model. In order of preference it is the next
// unclaimed cell of last, the first unclaimed cell of a model no
// worker is running, and the first unclaimed cell. A worker that has
// run nothing passes last = "", which matches every cell of a grid
// without a model axis, so such a grid runs in ascending order.
func nextCell(models []string, claimed []bool, running map[string]int, last string) int {
	head, free := -1, -1
	for k, m := range models {
		if claimed[k] {
			continue
		}
		if m == last {
			return k
		}
		if head < 0 {
			head = k
		}
		if free < 0 && running[m] == 0 {
			free = k
		}
	}
	if free >= 0 {
		return free
	}
	return head
}
