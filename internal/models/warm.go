// BatchNorm warm-up. Synthetic weights come with random BatchNorm
// statistics, so Build replaces them with the network's true FP32 data
// statistics — the stand-in for a trained checkpoint's running stats.
// The warm-up depends only on the model name and the GEMM kernel tier
// (its forwards run that tier's kernels), and a process runs one tier
// (kernels.ForceVariant runs at process start), so Build runs it once
// per model per process and copies the memoized statistics into every
// later network of the model. The warm-up's forwards run on the
// plan the build installed (BuildOn): a harness session's plan, whose
// chunks the cell's FP32 reference then reuses, or Build's fresh one.
// Planned forwards are byte-identical to heap forwards, so the plan
// never changes the statistics. Each Build returns a new network; a
// harness model session reuses one across its worker's cells of the
// model, which stay pure because quant.Handle.Release restores a
// network exactly.

package models

import (
	"sync"

	"fp8quant/internal/nn"
)

// warmBatches is the number of calibration batches per warm-up cycle.
const warmBatches = 4

// warmEntry is one memoized warm-up: per BatchNorm in walk order, its
// Mean followed by its Var (nn.SnapshotBatchNorms).
type warmEntry struct {
	once  sync.Once
	stats []float32
}

var warmMemo sync.Map // model name -> *warmEntry

// warmMemoized gives a freshly built network its warmed BatchNorm
// statistics: the memoized ones of its model, or, for the first Build of
// the model in this process, those warmUp computes on n itself.
func warmMemoized(n *Network, warmUp func(*Network)) {
	bns := nn.BatchNorms(n.root)
	if len(bns) == 0 {
		return
	}
	key := n.Meta.Name
	for {
		v, _ := warmMemo.LoadOrStore(key, &warmEntry{})
		e := v.(*warmEntry)
		e.once.Do(func() {
			defer func() {
				// A panicking warm-up must not leave an entry without
				// statistics for later Builds to copy.
				if e.stats == nil {
					warmMemo.CompareAndDelete(key, e)
				}
			}()
			warmUp(n)
			e.stats = nn.SnapshotBatchNorms(bns, nil)
		})
		if e.stats != nil {
			nn.RestoreBatchNorms(bns, e.stats)
			return
		}
		// The Build that ran e's warm-up panicked and dropped e; warm
		// through a fresh entry.
	}
}

// WarmBatchNorms replaces n's BatchNorm statistics with the true FP32
// data statistics by running calibration batches through the network.
// Without this the FP32 reference would be inconsistent with its own
// data and BatchNorm re-calibration (Figure 7) would have nothing
// meaningful to restore. Each estimation cycle runs batches batches of
// n.Data; the cycle cap is generous, since the statistics start from
// random values.
func WarmBatchNorms(n *Network, batches int) {
	bns := nn.BatchNorms(n.root)
	nn.CalibrateBatchNorms(bns, min(2*len(bns)+8, 40), nil, func() {
		for i := 0; i < batches; i++ {
			n.Run(n.Data.Batch(i % n.Data.Batches()))
		}
	})
}
