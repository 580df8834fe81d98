package models

import (
	"reflect"
	"sync"
	"testing"

	"fp8quant/internal/data"
)

// sampleBitEqual compares samples bit for bit.
func sampleBitEqual(a, b data.Sample) bool {
	if (a.X == nil) != (b.X == nil) {
		return false
	}
	if a.X != nil && (!reflect.DeepEqual(a.X.Shape, b.X.Shape) || !bitEqual(a.X, b.X)) {
		return false
	}
	return reflect.DeepEqual(a.Tokens, b.Tokens) && reflect.DeepEqual(a.Bags, b.Bags)
}

func mustBuild(t *testing.T, name string) *Network {
	t.Helper()
	n, err := Build(name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// cellBatches reads 28 batches through the memo: evalx's calibration
// batches [0, 4) and the indices of its eval split [8, 32), which cells
// stream through BatchInto instead, so six CNNs' sets overrun the
// memo's budget.
func cellBatches(n *Network) []data.Sample {
	var out []data.Sample
	for i := 0; i < 32; i++ {
		if i < 4 || i >= 8 {
			out = append(out, n.Data.Batch(i))
		}
	}
	return out
}

// TestBuildsShareBatches races Builds of three models (run it under
// -race): every Build of a model reads the same memoized batches, the
// same tensor or the same token backing array.
func TestBuildsShareBatches(t *testing.T) {
	ClearMemo()
	t.Cleanup(ClearMemo)
	names := []string{"cifar_resnet20", "bert_base_mrpc", "dlrm_criteo"}
	const builds = 4
	got := make([][][]data.Sample, builds) // [build][model][batch]
	var wg sync.WaitGroup
	for b := range got {
		got[b] = make([][]data.Sample, len(names))
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for m, name := range names {
				n, err := Build(name)
				if err != nil {
					t.Error(err)
					return
				}
				got[b][m] = cellBatches(n)
			}
		}(b)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for m, name := range names {
		for b := 1; b < builds; b++ {
			for j, s := range got[b][m] {
				first := got[0][m][j]
				shared := s.X == first.X
				if s.X == nil {
					shared = &s.Tokens[0][0] == &first.Tokens[0][0]
				}
				if !shared {
					t.Fatalf("%s: Builds 0 and %d generated batch %d twice", name, b, j)
				}
			}
		}
	}
	if _, sets := MemoLens(); sets != len(names) {
		t.Errorf("%d memoized batch sets, want %d", sets, len(names))
	}
}

// TestBatchMemoEvictsLeastRecentlyBuilt fills the memo with six CNNs'
// cell batches, one set more than the budget holds: the least recently
// built model's set is dropped, a network holding it keeps reading it,
// and the model's next Build regenerates bit-identical batches.
func TestBatchMemoEvictsLeastRecentlyBuilt(t *testing.T) {
	ClearMemo()
	t.Cleanup(ClearMemo)
	names := []string{"vgg11", "vgg13", "vgg16", "cifar_resnet20", "squeezenet", "resnet18"}
	nets := make([]*Network, len(names))
	first := make([][]data.Sample, len(names))
	for i, name := range names {
		nets[i] = mustBuild(t, name)
		first[i] = cellBatches(nets[i])
		if _, sets := MemoLens(); sets != min(i+1, 5) {
			t.Fatalf("after %s: %d memoized batch sets, want %d", name, sets, min(i+1, 5))
		}
	}
	if batchMemo.bytes > batchBudget {
		t.Fatalf("the memo holds %d bytes, over its %d-byte budget", batchMemo.bytes, batchBudget)
	}
	if nets[0].Data.Batch(0).X != first[0][0].X {
		t.Error("a network lost the batch set the memo dropped")
	}
	if mustBuild(t, names[1]).Data.Batch(0).X != first[1][0].X {
		t.Errorf("%s was dropped, but %s was built less recently", names[1], names[0])
	}
	again := cellBatches(mustBuild(t, names[0]))
	for j, s := range again {
		if s.X == first[0][j].X {
			t.Fatalf("%s: batch %d came from the dropped set", names[0], j)
		}
		if !sampleBitEqual(s, first[0][j]) {
			t.Fatalf("%s: regenerated batch %d differs from the original", names[0], j)
		}
	}
}
