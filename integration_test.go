package fp8quant_bench

import (
	"math"
	"testing"

	"fp8quant/internal/data"
	"fp8quant/internal/diffusion"
	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
	"fp8quant/internal/nn"
	"fp8quant/internal/quant"
	"fp8quant/internal/tensor"
	"fp8quant/internal/textgen"
)

// TestEndToEndPTQAcrossDomains runs the full pipeline — build,
// calibrate, convert, evaluate, restore — on one model per domain and
// checks the recommended format passes the paper's accuracy criterion.
func TestEndToEndPTQAcrossDomains(t *testing.T) {
	cases := []struct {
		model  string
		recipe quant.Recipe
		// minAcc relaxes the pass criterion for Score-metric models
		// (Pearson degrades quadratically in noise and has no margin
		// filter; see README, "Evaluation protocol").
		minAcc float64
	}{
		{"cifar_resnet20", quant.StandardFP8(quant.E3M4), 0.99},  // CV: E3M4 recommended
		{"distilbert_mrpc", quant.StandardFP8(quant.E4M3), 0.99}, // NLP: E4M3 recommended
		{"wav2vec2_librispeech", quant.StandardFP8(quant.E3M4), 0.99},
		{"dlrm_criteo", quant.StandardFP8(quant.E3M4), 0.97},
	}
	for _, c := range cases {
		c := c
		t.Run(c.model, func(t *testing.T) {
			t.Parallel()
			net, err := models.Build(c.model)
			if err != nil {
				t.Fatal(err)
			}
			res := evalx.Evaluate(net, c.recipe, true)
			if res.QAcc < c.minAcc {
				t.Errorf("%s with %s: acc %.4f (loss %.2f%%), want >= %.2f",
					c.model, c.recipe.Name(), res.QAcc, res.RelLoss*100, c.minAcc)
			}
		})
	}
}

// TestQuantizeIsReversibleOnComplexModel verifies bit-exact restore on
// a model containing every quantizable op kind.
func TestQuantizeIsReversibleOnComplexModel(t *testing.T) {
	net, err := models.Build("bert_base_mrpc")
	if err != nil {
		t.Fatal(err)
	}
	before := net.Run(net.Data.Batch(2)).Clone()
	recipes := []quant.Recipe{
		quant.StandardFP8(quant.E4M3).WithExtendedOps().WithSmoothQuant(0.5),
		quant.MixedFP8(),
		quant.StandardINT8(true),
		quant.DynamicFP8(quant.E3M4),
	}
	for _, r := range recipes {
		h := quant.Quantize(net, net.Data, r)
		h.Release()
		after := net.Run(net.Data.Batch(2))
		for i := range after.Data {
			if after.Data[i] != before.Data[i] {
				t.Fatalf("recipe %s: model not restored bit-exactly", r.Name())
			}
		}
	}
}

// TestExtendedOpsCoverageCounts checks the extended scheme actually
// covers the operator families Figure 9 lists.
func TestExtendedOpsCoverageCounts(t *testing.T) {
	net, _ := models.Build("bert_base_mrpc")
	h := quant.Quantize(net, net.Data, quant.StandardFP8(quant.E4M3).WithExtendedOps())
	defer h.Release()
	for _, kind := range []string{"Linear", "LayerNorm", "BatchMatMul", "Add"} {
		if h.Report.QuantizedOps[kind] == 0 {
			t.Errorf("extended scheme did not cover %s ops: %v", kind, h.Report.QuantizedOps)
		}
	}
}

// TestRecommendedFormatsByDomain is the paper's headline recommendation
// (Section 5): E4M3 for NLP, E3M4 marginally better for CV — verified
// as mean relative loss over small per-domain pools.
func TestRecommendedFormatsByDomain(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-model sweep")
	}
	meanLoss := func(names []string, r quant.Recipe) float64 {
		s := 0.0
		for _, n := range names {
			net, err := models.Build(n)
			if err != nil {
				t.Fatal(err)
			}
			s += evalx.Evaluate(net, r, true).RelLoss
		}
		return s / float64(len(names))
	}
	cv := []string{"cifar_resnet20", "squeezenet", "googlenet"}
	cvE3 := meanLoss(cv, quant.StandardFP8(quant.E3M4))
	cvE5 := meanLoss(cv, quant.StandardFP8(quant.E5M2))
	if cvE3 > cvE5 {
		t.Errorf("CV: E3M4 loss %.4f should not exceed E5M2 loss %.4f", cvE3, cvE5)
	}
	nlp := []string{"distilbert_mrpc", "tinybert_mrpc", "albert_sst2"}
	nlpE4 := meanLoss(nlp, quant.StandardFP8(quant.E4M3))
	nlpE5 := meanLoss(nlp, quant.StandardFP8(quant.E5M2))
	if nlpE4 > nlpE5 {
		t.Errorf("NLP: E4M3 loss %.4f should not exceed E5M2 loss %.4f", nlpE4, nlpE5)
	}
}

// TestTextGenerationPipelineUnderQuantization runs the quantized
// generator and checks the FP8 next-token distribution stays closer to
// FP32 than the INT8 baseline's. (Beam-search trajectories diverge
// chaotically after the first mismatch, so the distribution-level KL is
// the stable Table 4 shape check; trajectory metrics are reported by
// fp8bench -exp table4.)
func TestTextGenerationPipelineUnderQuantization(t *testing.T) {
	lm := models.NewGenLM(0x1E57)
	prompts := [][]int{
		{2, 7, 12, 17, 22, 27, 32, 37},
		{1, 3, 5, 7, 11, 13, 17, 19},
		{40, 41, 42, 43, 44, 45, 46, 47},
		{9, 90, 18, 80, 27, 70, 36, 60},
	}
	kl := func(r quant.Recipe) float64 {
		r.CalibBatches = 4
		h := quant.Quantize(lm, lm.DataSet, r)
		defer h.Release()
		return textgen.NextTokenKL(&fp32GenLM{lm: models.NewGenLM(0x1E57)}, lm, prompts)
	}
	e3m4 := kl(quant.StandardFP8(quant.E3M4))
	int8 := kl(quant.StandardINT8(true))
	if e3m4 >= int8 {
		t.Errorf("E3M4 next-token KL %.4f should be < INT8 dynamic %.4f", e3m4, int8)
	}
	// Beam search still runs end-to-end on the quantized model.
	h := quant.Quantize(lm, lm.DataSet, quant.MixedFP8())
	gen := textgen.BeamSearch(lm, prompts[0], 4, 20)
	h.Release()
	if len(gen) != 20 {
		t.Errorf("generated %d tokens, want 20", len(gen))
	}
}

// fp32GenLM wraps a pristine FP32 copy of the generator as the KL
// reference.
type fp32GenLM struct{ lm *models.GenLM }

func (f *fp32GenLM) NextLogits(tokens [][]int) *tensor.Tensor { return f.lm.NextLogits(tokens) }
func (f *fp32GenLM) Vocab() int                               { return f.lm.Vocab() }

// TestDiffusionFIDOrdering checks the Figure 6 shape end-to-end: FP8
// FID below INT8-dynamic FID.
func TestDiffusionFIDOrdering(t *testing.T) {
	pipe := diffusion.NewPipeline(0xD1F2, 2)
	ref := pipe.Generate(16)
	fid := func(r quant.Recipe) float64 {
		r.CalibBatches = 4
		h := quant.Quantize(pipe, pipe.CalibData(), r)
		gen := pipe.Generate(16)
		h.Release()
		return diffusion.FIDAgainst(ref, gen)
	}
	e4 := fid(quant.StandardFP8(quant.E4M3))
	i8 := fid(quant.StandardINT8(true))
	if e4 >= i8 {
		t.Errorf("FID(E4M3)=%v should be < FID(INT8 dynamic)=%v", e4, i8)
	}
}

// TestBNCalibrationImprovesQuantizedCNN verifies the Figure 7 property
// end-to-end: re-calibrating BatchNorm statistics after quantization
// reduces the output error of a quantized CNN.
// Classic CNNs benefit; channel-imbalanced mobile nets can diverge
// under heavy quantization noise (their recalibrated variances chase
// quantization-collapsed channels), so the assertion uses a
// Figure 7-style network.
func TestBNCalibrationImprovesQuantizedCNN(t *testing.T) {
	net, err := models.Build("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	base := net.Run(net.Data.Batch(8)).Clone()
	outErr := func(r quant.Recipe) float64 {
		h := quant.Quantize(net, net.Data, r)
		out := net.Run(net.Data.Batch(8))
		h.Release()
		var s float64
		for i := range out.Data {
			d := float64(out.Data[i] - base.Data[i])
			s += d * d
		}
		return math.Sqrt(s / float64(out.Len()))
	}
	plain := outErr(quant.StandardFP8(quant.E4M3))
	calib := outErr(quant.StandardFP8(quant.E4M3).WithBNCalib(4))
	if calib >= plain {
		t.Errorf("BN calibration should reduce output error: %v vs %v", calib, plain)
	}
}

// TestAugmentedCalibrationDataFlows checks the Figure 7 data path: a
// transform-bearing dataset feeds quantization without disturbing the
// reversibility contract.
func TestAugmentedCalibrationDataFlows(t *testing.T) {
	net, err := models.Build("cifar_resnet20")
	if err != nil {
		t.Fatal(err)
	}
	before := net.Run(net.Data.Batch(0)).Clone()
	ds := &data.ImageDataset{N: 16, C: 3, H: 12, W: 12, NumBatches: 8,
		Seed: 99, Transform: data.AugmentTraining}
	r := quant.StandardFP8(quant.E3M4).WithBNCalib(4)
	r.CalibBatches = 4
	h := quant.Quantize(net, ds, r)
	h.Release()
	after := net.Run(net.Data.Batch(0))
	for i := range after.Data {
		if after.Data[i] != before.Data[i] {
			t.Fatal("augmented calibration broke restore")
		}
	}
}

// TestWalkPathsAreUnique guards the first/last exclusion: every module
// path in every zoo model must be unique, or the site table's path
// comparison would be ambiguous.
func TestWalkPathsAreUnique(t *testing.T) {
	for _, name := range []string{"bert_base_mrpc", "resnet50", "dlrm_criteo", "marianmt_enro"} {
		net, _ := models.Build(name)
		seen := map[string]bool{}
		dup := ""
		nn.Walk(net.Root(), func(path string, _ nn.Module) {
			if seen[path] {
				dup = path
			}
			seen[path] = true
		})
		if dup != "" {
			t.Errorf("%s: duplicate module path %q", name, dup)
		}
	}
}
