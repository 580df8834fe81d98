package evalx

import (
	"testing"

	"fp8quant/internal/models"
	"fp8quant/internal/nn"
	"fp8quant/internal/quant"
)

// BenchmarkQuantizeWarm is one session network's warm cycle over the six
// Table-2 recipes, each through the paper's per-domain settings:
// Quantize, Split.Accuracy and Release per recipe, on a planned network
// whose site table, plan chunks, FP32 reference and eval split (its
// packed kept set) an earlier cycle built, as a sweep worker's cells of
// one model run. yolov3 is a BatchNorm CNN (BNCalib), tinybert_mrpc a
// token model (SmoothQuant). make bench-gate holds its allocs/op.
func BenchmarkQuantizeWarm(b *testing.B) {
	for _, name := range []string{"yolov3", "tinybert_mrpc"} {
		b.Run(name, func(b *testing.B) {
			net, err := models.Build(name)
			if err != nil {
				b.Fatal(err)
			}
			net.InstallPlan(nn.NewPlan(nil))
			defer net.InstallPlan(nil)
			sp := NewSplit(ComputeReference(net))
			recipes := []quant.Recipe{
				quant.StandardFP8(quant.E5M2),
				quant.StandardFP8(quant.E4M3),
				quant.DynamicFP8(quant.E4M3),
				quant.StandardFP8(quant.E3M4),
				quant.DynamicFP8(quant.E3M4),
				quant.StandardINT8(net.Meta.Domain != models.CV),
			}
			for i, r := range recipes {
				recipes[i] = PaperRecipe(r, net)
			}
			cycle := func() {
				for _, r := range recipes {
					h := quant.Quantize(net, net.Data, r)
					sp.Accuracy(net)
					h.Release()
				}
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
