// Batch memo. The passes that run a model on its calibration batches
// read the same synthetic batches again and again: the BatchNorm
// warm-up, and each recipe's calibration and BatchNorm re-estimation
// (quant.Quantize), all from batch 0 on. A model's dataset depends only
// on its name, so Build wraps the network's Data in a memo that
// generates each batch index Batch asks for once per process and hands
// every later caller the same read-only Sample. The eval split does not
// pass through it: evaluation streams its batches through BatchInto,
// which the memo forwards to the model's generator, so the memo holds
// calibration reads only. The memo holds at most batchBudget bytes of
// batch data; past it, the batch set of the least recently built model
// is dropped. Dropping only removes the memo's reference: networks that
// hold the set keep using it, and the next Build of the model generates
// identical bytes again.

package models

import (
	"math/bits"
	"slices"
	"sync"

	"fp8quant/internal/data"
)

// batchBudget bounds the memoized batch bytes. A sweep cell's
// calibration reads are four batches: 108 KiB for a CNN, 6 KiB for a
// token model. The budget, unchanged since the memo also held the eval
// split, now holds those of all 75 zoo models (3.9 MiB), so a sweep's
// hits do not depend on its cell order.
const batchBudget = 4 << 20

// batchSet is one model's memoized batches.
type batchSet struct {
	name    string
	mu      sync.Mutex
	batches map[int]data.Sample // guarded by mu
	bytes   int                 // guarded by batchMemo.mu
}

var batchMemo struct {
	mu    sync.Mutex
	sets  []*batchSet // least recently built first
	bytes int
}

// memoDataset is the Dataset Build installs: inner's batches, each
// generated once per set.
type memoDataset struct {
	inner data.Dataset
	set   *batchSet
}

// Batches implements data.Dataset.
func (d *memoDataset) Batches() int { return d.inner.Batches() }

// Batch implements data.Dataset. The returned Sample is shared by every
// network of the model.
func (d *memoDataset) Batch(i int) data.Sample {
	set := d.set
	set.mu.Lock()
	defer set.mu.Unlock()
	if s, ok := set.batches[i]; ok {
		return s
	}
	s := d.inner.Batch(i)
	set.batches[i] = s
	chargeBatch(set, sampleBytes(s))
	return s
}

// BatchInto implements data.Dataset: inner's generator, bypassing the
// memo, for callers that stream batches through a Sample they own.
func (d *memoDataset) BatchInto(i int, s *data.Sample) { d.inner.BatchInto(i, s) }

// memoBatches routes n's batches through its model's batch set, making
// that set the most recently built.
func memoBatches(n *Network) {
	batchMemo.mu.Lock()
	defer batchMemo.mu.Unlock()
	var set *batchSet
	if i := slices.IndexFunc(batchMemo.sets, func(s *batchSet) bool { return s.name == n.Meta.Name }); i >= 0 {
		set = dropSet(i)
	} else {
		set = &batchSet{name: n.Meta.Name, batches: map[int]data.Sample{}}
	}
	//fp8vet:ignore cellpurity mutex-guarded memo of seeded batches; a set holds exactly the bytes the model's dataset generates, so which sets it keeps changes what a cell recomputes, never what it reads
	batchMemo.sets = append(batchMemo.sets, set)
	n.Data = &memoDataset{inner: n.Data, set: set}
}

// chargeBatch adds a newly generated batch of set to the memo's bytes,
// unless set was already dropped, then drops least recently built sets
// until the memo fits its budget.
func chargeBatch(set *batchSet, n int) {
	batchMemo.mu.Lock()
	defer batchMemo.mu.Unlock()
	if !slices.Contains(batchMemo.sets, set) {
		return
	}
	set.bytes += n
	batchMemo.bytes += n
	for batchMemo.bytes > batchBudget {
		batchMemo.bytes -= dropSet(0).bytes
	}
}

// dropSet removes and returns the i-th memoized set, clearing the
// vacated slot so the memo's array does not keep it alive.
func dropSet(i int) *batchSet {
	sets := batchMemo.sets
	s := sets[i]
	copy(sets[i:], sets[i+1:])
	sets[len(sets)-1] = nil
	//fp8vet:ignore cellpurity mutex-guarded memo of seeded batches; a set holds exactly the bytes the model's dataset generates, so which sets it keeps changes what a cell recomputes, never what it reads
	batchMemo.sets = sets[:len(sets)-1]
	return s
}

// sampleBytes is the size of s's input data.
func sampleBytes(s data.Sample) int {
	n := 0
	if s.X != nil {
		n += 4 * len(s.X.Data)
	}
	for _, ids := range [][][]int{s.Tokens, s.Bags} {
		for _, row := range ids {
			n += len(row) * bits.UintSize / 8
		}
	}
	return n
}

// clearBatchMemo drops every memoized batch set.
func clearBatchMemo() {
	batchMemo.mu.Lock()
	defer batchMemo.mu.Unlock()
	batchMemo.sets = nil
	batchMemo.bytes = 0
}
