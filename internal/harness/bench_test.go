package harness

import (
	"testing"

	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
	"fp8quant/internal/resultstore"
)

// BenchmarkCellBookkeeping is a cell's fixed cost in the cache layers,
// apart from its compute: one fresh cell with a trivial compute (its
// key and content address, a memo and store miss, the store write, the
// memo insert), then the same cell again as a memo hit. Each iteration
// is a new cell (its grid seed), written into a temp store. make
// bench-gate holds its allocs/op.
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i)
		if _, fresh := cachedCellFresh(spec.CellKey(c).Addr(), compute); !fresh {
			b.Fatal("a new cell was served from a cache")
		}
		if _, fresh := cachedCellFresh(spec.CellKey(c).Addr(), compute); fresh {
			b.Fatal("a memoized cell was computed again")
		}
	}
}
