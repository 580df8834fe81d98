package harness

import (
	"runtime"
	"runtime/debug"
	"testing"

	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
	"fp8quant/internal/resultstore"
)

// allocWindowLen is how many timed iterations a benchmark's allocation
// counters cover (allocWindow).
const allocWindowLen = 100

// allocWindow makes a benchmark's B/op and allocs/op those of timed
// iterations [1, allocWindowLen) (of all but the first in a shorter
// run), so a recorded run and a gate run count the same iterations in
// the same state. Averaged over every iteration they would move with
// b.N: each iteration's cell has a longer seed than the last and the
// memo's map grows,
// and a collection that lands inside the loop empties the sync.Pools
// that the JSON and HTTP layers refill. So the window starts after a
// collection and one iteration that refills the pools, and the
// collector stays off until it ends.
type allocWindow struct {
	start  runtime.MemStats
	gc     int
	on     bool
	counts bool
}

// mark runs at the top of timed iteration i.
func (w *allocWindow) mark(b *testing.B, i int) {
	switch i {
	case 0:
		b.StopTimer()
		runtime.GC()
		w.gc, w.on = debug.SetGCPercent(-1), true
		b.StartTimer()
	case 1:
		runtime.ReadMemStats(&w.start)
		w.counts = true
	case allocWindowLen:
		w.report(b, i)
	}
}

// report ends the window before iteration i (b.N after the loop) and
// overrides the counters with the window's, once.
func (w *allocWindow) report(b *testing.B, i int) {
	if !w.on {
		return
	}
	w.on = false
	debug.SetGCPercent(w.gc)
	if !w.counts {
		return
	}
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	b.ReportMetric(float64(end.TotalAlloc-w.start.TotalAlloc)/float64(i-1), "B/op")
	b.ReportMetric(float64(end.Mallocs-w.start.Mallocs)/float64(i-1), "allocs/op")
}

// BenchmarkCellBookkeeping is a cell's fixed cost in the cache layers,
// apart from its compute: one fresh cell with a trivial compute (its
// key and content address, a memo and store miss, the store write, the
// memo insert), then the same cell again as a memo hit. Each iteration
// is a new cell (its grid seed), written into a temp store; an untimed
// first cell pays the store's and memo's first-use costs. make
// bench-gate holds its allocs/op and bytes/op, counted over a fixed
// window of iterations (allocWindow); it reports no ns/op.
func BenchmarkCellBookkeeping(b *testing.B) {
	s, err := resultstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	ClearMemo()
	SetStore(s)
	b.Cleanup(func() {
		SetStore(nil)
		ClearMemo()
	})
	spec := GridSpec{ID: "bookkeeping", Axes: []Axis{
		{Name: "model", Values: []string{"bert_base_mrpc"}},
		{Name: "recipe", Values: []string{"E4M3 Static"}},
	}}
	c := spec.CellAt(0)
	compute := func() (evalx.Result, bool) {
		return evalx.Result{Model: "bert_base_mrpc", Domain: models.NLP, Recipe: "E4M3 Static",
			BaseAcc: 1, QAcc: 0.99, RelLoss: 0.01, Pass: true}, true
	}
	cell := func(seed uint64) {
		spec.Seed = seed
		if _, fresh := cachedCellFresh(spec.CellKey(c).Addr(), compute); !fresh {
			b.Fatal("a new cell was served from a cache")
		}
		if _, fresh := cachedCellFresh(spec.CellKey(c).Addr(), compute); fresh {
			b.Fatal("a memoized cell was computed again")
		}
	}
	cell(0)
	var w allocWindow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.mark(b, i)
		cell(uint64(i) + 1)
	}
	w.report(b, b.N)
	// Every iteration makes durable store writes, so its time tracks
	// the disk, not the code: a zero ns/op tells testing to print none.
	b.ReportMetric(0, "ns/op")
}
