// Calibration batches. The passes that run a model on its calibration
// batches read the same synthetic batches again and again: the BatchNorm
// warm-up (warmBatches batches per cycle, up to 40 cycles), and each
// recipe's calibration and BatchNorm re-estimation (quant.Quantize), all
// from batch 0 on. BuildOn wraps the network's Data in a memoDataset
// that generates each batch index Batch asks for once per network and
// hands every later read the same read-only Sample, so a harness
// session's cells of one model, which share its network, share its
// batches too. A network serves one caller at a time (its plan is not
// safe for concurrent use), so the memo takes no lock, and its batches
// go with the network. The eval split does not pass through it:
// evaluation streams its batches through BatchInto, which the memo
// forwards to the model's generator, so the memo holds calibration
// reads only.

package models

import "fp8quant/internal/data"

// memoDataset is the Dataset BuildOn installs: inner's batches, each
// generated once per network.
type memoDataset struct {
	inner   data.Dataset
	batches map[int]data.Sample
}

// Batches implements data.Dataset.
func (d *memoDataset) Batches() int { return d.inner.Batches() }

// Batch implements data.Dataset. The returned Sample is shared by every
// later Batch(i) of the network.
func (d *memoDataset) Batch(i int) data.Sample {
	if s, ok := d.batches[i]; ok {
		return s
	}
	s := d.inner.Batch(i)
	d.batches[i] = s
	return s
}

// BatchInto implements data.Dataset: inner's generator, bypassing the
// memo, for callers that stream batches through a Sample they own.
func (d *memoDataset) BatchInto(i int, s *data.Sample) { d.inner.BatchInto(i, s) }
