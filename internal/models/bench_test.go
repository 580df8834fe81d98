package models_test

import (
	"testing"

	"fp8quant/internal/models"
	"fp8quant/internal/nn"
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
