package models

import "fp8quant/internal/data"

// MemoBatches returns every batch net's memo holds, and beside each a
// fresh generation from an unwrapped copy of the model's dataset.
func MemoBatches(net *Network) (memo, fresh map[int]data.Sample) {
	raw := buildRaw(net.Meta.Name).Data
	memo, fresh = map[int]data.Sample{}, map[int]data.Sample{}
	for i, s := range net.Data.(*memoDataset).batches {
		memo[i], fresh[i] = s, raw.Batch(i)
	}
	return memo, fresh
}

// SampleBitEqual compares samples bit for bit.
var SampleBitEqual = sampleBitEqual
