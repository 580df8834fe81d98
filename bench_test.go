// Package fp8quant_bench holds the top-level benchmark harness: one
// testing.B benchmark per paper table/figure (running reduced-size
// sweeps where the full experiment takes minutes — cmd/fp8bench runs
// the full versions), plus micro-benchmarks for the codec and layer
// kernels the experiments are built on.
package fp8quant_bench

import (
	"testing"

	"fp8quant/internal/diffusion"
	"fp8quant/internal/evalx"
	"fp8quant/internal/fp8"
	"fp8quant/internal/harness"
	"fp8quant/internal/models"
	"fp8quant/internal/nn"
	"fp8quant/internal/quant"
	"fp8quant/internal/tensor"
	"fp8quant/internal/textgen"
)

// ---- per-table / per-figure benchmarks ----

// BenchmarkTable1FormatConstants regenerates Table 1's format constants
// (trivial, included for index completeness).
func BenchmarkTable1FormatConstants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, f := range fp8.Formats {
			_ = f.MaxValue()
			_ = f.MinSubnormal()
		}
	}
}

// BenchmarkFig1QuantMSE regenerates Figure 1 (quantized-value grids and
// MSE on the N(0,0.5)+outliers tensor).
func BenchmarkFig1QuantMSE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, _ := harness.Get("fig1")
		_ = harness.Run(e)
	}
}

// BenchmarkFig3TensorDistributions regenerates Figure 3.
func BenchmarkFig3TensorDistributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, _ := harness.Get("fig3")
		_ = harness.Run(e)
	}
}

// benchSubset is a fast cross-domain model subset used by the reduced
// pass-rate benchmarks.
var benchSubset = []string{
	"cifar_resnet20", "squeezenet", "vit_small",
	"distilbert_mrpc", "tinybert_mrpc", "bloom_560m", "dlrm_criteo",
}

// BenchmarkTable2PassRate runs the Table 2 recipe set over a reduced
// model subset (full 75-model sweep: fp8bench -exp table2).
func BenchmarkTable2PassRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range benchSubset {
			net, err := models.Build(name)
			if err != nil {
				b.Fatal(err)
			}
			recipes := []quant.Recipe{
				quant.StandardFP8(quant.E4M3),
				quant.StandardINT8(net.Meta.Domain != models.CV),
			}
			res := evalx.EvaluateRecipes(net, recipes, true)
			_ = evalx.AggregatePassRates(res)
		}
	}
}

// BenchmarkFig4LossVariability computes loss-distribution statistics on
// the reduced subset (full version: fp8bench -exp fig4).
func BenchmarkFig4LossVariability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var losses []float64
		for _, name := range benchSubset {
			net, err := models.Build(name)
			if err != nil {
				b.Fatal(err)
			}
			r := evalx.Evaluate(net, quant.StandardFP8(quant.E3M4), true)
			losses = append(losses, r.RelLoss)
		}
		_ = evalx.ComputeLossStats(losses)
	}
}

// BenchmarkTable3RepresentativeAccuracy evaluates two representative
// Table 3 rows (full version: fp8bench -exp table3).
func BenchmarkTable3RepresentativeAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"distilbert_mrpc", "cifar_resnet20"} {
			net, _ := models.Build(name)
			_ = evalx.EvaluateRecipes(net, []quant.Recipe{
				quant.StandardFP8(quant.E4M3),
				quant.StandardFP8(quant.E3M4),
			}, true)
		}
	}
}

// BenchmarkFig5SizeBuckets exercises the size-class bucketing path.
func BenchmarkFig5SizeBuckets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range models.Names() {
			info, _ := models.InfoFor(name)
			_ = info.SizeClass()
		}
	}
}

// BenchmarkFig6DiffusionFID regenerates a reduced Figure 6 (one format
// pair; full grid: fp8bench -exp fig6).
func BenchmarkFig6DiffusionFID(b *testing.B) {
	pipe := diffusion.NewPipeline(0xBE6, 2)
	ref := pipe.Generate(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := quant.StandardFP8(quant.E4M3)
		r.CalibBatches = 4
		h := quant.Quantize(pipe, pipe.CalibData(), r)
		gen := pipe.Generate(8)
		h.Release()
		_ = diffusion.FIDAgainst(ref, gen)
	}
}

// BenchmarkTable4BeamSearch regenerates a reduced Table 4 row: beam
// search under E3M4 quantization with degeneration metrics.
func BenchmarkTable4BeamSearch(b *testing.B) {
	lm := models.NewGenLM(0xBE4)
	prompt := []int{1, 5, 9, 13, 17, 21, 25, 29}
	ref := textgen.BeamSearch(lm, prompt, 2, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := quant.StandardFP8(quant.E3M4)
		r.CalibBatches = 2
		h := quant.Quantize(lm, lm.DataSet, r)
		gen := textgen.BeamSearch(lm, prompt, 2, 16)
		h.Release()
		_ = textgen.Compare(ref, gen)
	}
}

// BenchmarkFig7BNCalibration regenerates one Figure 7 cell (3K samples
// + training transform on one BN model).
func BenchmarkFig7BNCalibration(b *testing.B) {
	net, err := models.Build("cifar_resnet20")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := quant.StandardFP8(quant.E4M3).WithBNCalib(4)
		r.CalibBatches = 4
		h := quant.Quantize(net, net.Data, r)
		h.Release()
	}
}

// BenchmarkFig8MixedFormatMSE regenerates Figure 8. fig8 is a grid
// experiment, so the in-process cell memo is cleared every iteration —
// without that, iterations 2..N would just replay memoized cells and
// the benchmark would stop tracking the quantization path.
func BenchmarkFig8MixedFormatMSE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.ClearMemo()
		e, _ := harness.Get("fig8")
		_ = harness.Run(e)
	}
}

// BenchmarkTable5MixedFormats evaluates single vs mixed formats on one
// Table 5 model.
func BenchmarkTable5MixedFormats(b *testing.B) {
	net, _ := models.Build("bert_base_mrpc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = evalx.EvaluateRecipes(net, []quant.Recipe{
			quant.StandardFP8(quant.E4M3),
			quant.MixedFP8(),
		}, true)
	}
}

// BenchmarkTable6StaticVsDynamic evaluates the static/dynamic pair on
// one Table 6 model.
func BenchmarkTable6StaticVsDynamic(b *testing.B) {
	net, _ := models.Build("bert_base_cola")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = evalx.EvaluateRecipes(net, []quant.Recipe{
			quant.DynamicFP8(quant.E4M3),
			quant.StandardFP8(quant.E4M3),
		}, true)
	}
}

// BenchmarkFig9ExtendedOps compares standard vs extended coverage on
// one NLP model.
func BenchmarkFig9ExtendedOps(b *testing.B) {
	net, _ := models.Build("distilbert_sst2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = evalx.EvaluateRecipes(net, []quant.Recipe{
			quant.StandardFP8(quant.E4M3),
			quant.StandardFP8(quant.E4M3).WithExtendedOps(),
		}, true)
	}
}

// BenchmarkFig10KLDemo regenerates the appendix KL demo.
func BenchmarkFig10KLDemo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, _ := harness.Get("fig10")
		_ = harness.Run(e)
	}
}

// BenchmarkFirstLastAblation runs the Section 4.3.1 ablation on one
// CNN.
func BenchmarkFirstLastAblation(b *testing.B) {
	net, _ := models.Build("cifar_resnet20")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = evalx.EvaluateRecipes(net, []quant.Recipe{
			quant.StandardFP8(quant.E3M4),
			quant.StandardFP8(quant.E3M4).WithFirstLast(),
		}, true)
	}
}

// ---- fast codec vs scalar reference (1M-element tensor) ----

// bench1M builds a 1M-element tensor spanning the E4M3 normal and
// subnormal ranges, the workload quantifying the LUT codec speedup.
func bench1M() []float32 {
	src := make([]float32, 1<<20)
	r := tensor.NewRNG(0xBE1C)
	for i := range src {
		src[i] = float32(r.Norm() * 8)
	}
	return src
}

// BenchmarkEncodeScalar is the reference float64 encoder over 1M
// elements — the baseline BenchmarkEncodeLUT is measured against.
func BenchmarkEncodeScalar(b *testing.B) {
	src := bench1M()
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	var sink uint8
	for i := 0; i < b.N; i++ {
		for _, v := range src {
			sink += fp8.E4M3.Encode(float64(v))
		}
	}
	benchSink = sink
}

// BenchmarkEncodeLUT is the bit-level fast encoder over the same 1M
// elements (acceptance target: >= 2x over BenchmarkEncodeScalar).
func BenchmarkEncodeLUT(b *testing.B) {
	src := bench1M()
	c := fp8.E4M3.Codec()
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	var sink uint8
	for i := 0; i < b.N; i++ {
		for _, v := range src {
			sink += c.Encode(v)
		}
	}
	benchSink = sink
}

// BenchmarkQuantizeSliceScalar is the scalar quantize-dequantize
// reference path on a 1M-element tensor.
func BenchmarkQuantizeSliceScalar(b *testing.B) {
	src := bench1M()
	dst := make([]float32, len(src))
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp8.E4M3.QuantizeSliceRef(dst, src)
	}
}

// BenchmarkQuantizeSliceFast is the serial LUT-codec path.
func BenchmarkQuantizeSliceFast(b *testing.B) {
	src := bench1M()
	dst := make([]float32, len(src))
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp8.E4M3.QuantizeSlice(dst, src)
	}
}

// BenchmarkQuantizeSliceParallel fans the same tensor out over the
// worker pool (acceptance target: >= 2x over the scalar path).
func BenchmarkQuantizeSliceParallel(b *testing.B) {
	src := bench1M()
	dst := make([]float32, len(src))
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp8.E4M3.QuantizeSliceParallel(dst, src)
	}
}

var benchSink uint8

// ---- sweep-engine scaling ----

// benchmarkSweep runs the Table 2 recipe sweep over the reduced model
// subset at a fixed worker count. ClearMemo before every run drops the
// process-wide FP32 reference cache, so each worker count measures the
// same amount of work and the scaling comparison stays valid.
func benchmarkSweep(b *testing.B, workers int) {
	harness.SetWorkers(workers)
	defer harness.SetWorkers(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harness.ClearMemo()
		_ = harness.Sweep(benchSubset)
	}
}

func BenchmarkSweepWorkers1(b *testing.B) { benchmarkSweep(b, 1) }
func BenchmarkSweepWorkers2(b *testing.B) { benchmarkSweep(b, 2) }
func BenchmarkSweepWorkersN(b *testing.B) { benchmarkSweep(b, 0) }

// ---- micro-benchmarks for the substrate kernels ----

func BenchmarkE4M3Encode(b *testing.B) {
	vals := make([]float64, 1024)
	r := tensor.NewRNG(1)
	for i := range vals {
		vals[i] = r.Norm() * 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vals {
			_ = fp8.E4M3.Encode(v)
		}
	}
	b.SetBytes(1024)
}

func BenchmarkQuantizeSliceE4M3(b *testing.B) {
	src := make([]float32, 4096)
	dst := make([]float32, 4096)
	r := tensor.NewRNG(2)
	for i := range src {
		src[i] = float32(r.Norm())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp8.E4M3.QuantizeSlice(dst, src)
	}
	b.SetBytes(4096 * 4)
}

func BenchmarkInt8QuantizeSlice(b *testing.B) {
	src := make([]float32, 4096)
	dst := make([]float32, 4096)
	r := tensor.NewRNG(3)
	for i := range src {
		src[i] = float32(r.Norm())
	}
	q := fp8.NewInt8Symmetric(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.QuantizeSlice(dst, src)
	}
	b.SetBytes(4096 * 4)
}

func BenchmarkLinearForward(b *testing.B) {
	l := nn.NewLinear(256, 256)
	l.W.FillNormal(tensor.NewRNG(4), 0, 0.1)
	x := tensor.New(16, 256)
	x.FillNormal(tensor.NewRNG(5), 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Forward(nil, x)
	}
}

func BenchmarkLinearForwardQuantized(b *testing.B) {
	l := nn.NewLinear(256, 256)
	l.W.FillNormal(tensor.NewRNG(4), 0, 0.1)
	l.QS.Input = quant.StaticFP8Func(fp8.E4M3, 4)
	x := tensor.New(16, 256)
	x.FillNormal(tensor.NewRNG(5), 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Forward(nil, x)
	}
}

func BenchmarkConv2dForward(b *testing.B) {
	c := nn.NewConv2d(16, 16, 3, 1, 1, 1)
	c.W.FillNormal(tensor.NewRNG(6), 0, 0.1)
	x := tensor.New(4, 16, 16, 16)
	x.FillNormal(tensor.NewRNG(7), 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Forward(nil, x)
	}
}

func BenchmarkAttentionForward(b *testing.B) {
	a := nn.NewMultiHeadAttention(64, 4)
	r := tensor.NewRNG(8)
	for _, l := range []*nn.Linear{a.WQ, a.WK, a.WV, a.WO} {
		l.W.FillNormal(r, 0, 0.1)
	}
	x := tensor.New(4, 32, 64)
	x.FillNormal(r, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Forward(nil, x)
	}
}

func BenchmarkObserverMinMax(b *testing.B) {
	vals := make([]float32, 4096)
	r := tensor.NewRNG(9)
	for i := range vals {
		vals[i] = float32(r.Norm())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := quant.NewMinMaxObserver()
		o.Observe(vals)
		_ = o.AbsMax()
	}
}

func BenchmarkQuantizePrepare(b *testing.B) {
	net, err := models.Build("tinybert_mrpc")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := quant.Quantize(net, net.Data, quant.StandardFP8(quant.E4M3))
		h.Release()
	}
}
