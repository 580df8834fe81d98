package models_test

import (
	"testing"

	"fp8quant/internal/models"
	"fp8quant/internal/nn"
	"fp8quant/internal/quant"
	"fp8quant/internal/tensor"
)

// BenchmarkArenaFootprint is one planned forward of a pre-built network
// on a fresh plan, so its B/op is the forward arena's chunk bytes: what
// a sweep worker's plan holds for the model. densenet121 and googlenet
// pin the concatenating blocks' scopes, efficientnet_b0 the convBN and
// squeeze-excitation ones, bert_base_sst2 the attention and
// feed-forward ones; every op's scratch is released in all four. make
// bench-gate holds its bytes/op.
func BenchmarkArenaFootprint(b *testing.B) {
	for _, name := range []string{"densenet121", "googlenet", "efficientnet_b0", "bert_base_sst2"} {
		b.Run(name, func(b *testing.B) {
			net, err := models.Build(name)
			if err != nil {
				b.Fatal(err)
			}
			defer net.InstallPlan(nil)
			s := net.Data.Batch(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.InstallPlan(nn.NewPlan(nil))
				net.Run(s)
			}
		})
	}
}

// BenchmarkCellArenaFootprint is one Quantize/Release cycle of a warm
// network (site table, batches and forward arena made by an earlier
// cycle) whose weight masters go to a fresh cell arena, so its B/op is
// the cell arena's chunk bytes for the model plus the cycle's own heap
// (its Handle, a few hundred bytes; BenchmarkQuantizeWarm's).
// densenet121's masters fill a fraction of one chunk, so the row pins
// the cell arena's chunk floor; bert_base_sst2's larger weights fill
// two. make bench-gate holds its bytes/op.
func BenchmarkCellArenaFootprint(b *testing.B) {
	for _, name := range []string{"densenet121", "bert_base_sst2"} {
		b.Run(name, func(b *testing.B) {
			net, err := models.Build(name)
			if err != nil {
				b.Fatal(err)
			}
			net.InstallPlan(nn.NewPlan(nil))
			defer net.InstallPlan(nil)
			m := &freshCell{Network: net}
			r := quant.StandardFP8(quant.E4M3)
			cycle := func() {
				m.cell = tensor.CellArena()
				quant.Quantize(m, net.Data, r).Release()
			}
			cycle()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}

// freshCell is a network whose Quantize carves its masters from an
// arena of its own instead of the installed plan's cell arena.
type freshCell struct {
	*models.Network
	cell tensor.Arena
}

func (m *freshCell) CellArena() *tensor.Arena { return &m.cell }
