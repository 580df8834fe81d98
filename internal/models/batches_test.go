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

// sameStorage reports whether two samples are one generation: the same
// input tensor, or the same token backing array.
func sameStorage(a, b data.Sample) bool {
	if a.X != nil {
		return a.X == b.X
	}
	return &a.Tokens[0][0] == &b.Tokens[0][0]
}

func mustBuild(t *testing.T, name string) *Network {
	t.Helper()
	n, err := Build(name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// batchModels cover each input modality: an image tensor, token ids,
// and dense features beside categorical bags.
var batchModels = []string{"cifar_resnet20", "bert_base_mrpc", "dlrm_criteo"}

// calibBatches are the batch indices a cell's calibration reads.
const calibBatches = 4

// TestNetworkMemoizesBatches checks that a network generates each
// calibration batch once: a second Batch(i) returns the same Sample.
func TestNetworkMemoizesBatches(t *testing.T) {
	for _, name := range batchModels {
		n := mustBuild(t, name)
		for i := 0; i < calibBatches; i++ {
			if first := n.Data.Batch(i); !sameStorage(n.Data.Batch(i), first) {
				t.Errorf("%s: a second Batch(%d) generated the batch again", name, i)
			}
		}
	}
}

// TestNetworksDoNotShareBatches builds two networks of each model at
// once (run it under -race), the first after a cold ClearMemo so its
// warm-up reads its batches: both read bit-identical batches, each
// generated by its own network.
func TestNetworksDoNotShareBatches(t *testing.T) {
	ClearMemo()
	t.Cleanup(ClearMemo)
	for _, name := range batchModels {
		var got [2][]data.Sample
		var wg sync.WaitGroup
		for b := range got {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				n, err := Build(name)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < calibBatches; i++ {
					got[b] = append(got[b], n.Data.Batch(i))
				}
			}(b)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for i, s := range got[1] {
			if sameStorage(s, got[0][i]) {
				t.Errorf("%s: two networks share batch %d", name, i)
			}
			if !sampleBitEqual(s, got[0][i]) {
				t.Errorf("%s: two networks read different batch %d", name, i)
			}
		}
	}
}

// TestBatchIntoBypassesMemo checks that BatchInto generates into the
// caller's Sample, whether or not the memo holds the batch, and leaves
// the memo as it was.
func TestBatchIntoBypassesMemo(t *testing.T) {
	for _, name := range batchModels {
		n := mustBuild(t, name)
		memo := n.Data.(*memoDataset)
		held := n.Data.Batch(0)
		before := len(memo.batches)
		for _, i := range []int{0, 8} {
			var s data.Sample
			n.Data.BatchInto(i, &s)
			if len(memo.batches) != before {
				t.Fatalf("%s: BatchInto(%d) added a batch to the memo", name, i)
			}
			if i == 0 && sameStorage(s, held) {
				t.Errorf("%s: BatchInto(0) returned the memoized batch", name)
			}
			if !sampleBitEqual(s, memo.inner.Batch(i)) {
				t.Errorf("%s: BatchInto(%d) differs from the generator's batch", name, i)
			}
		}
	}
}
