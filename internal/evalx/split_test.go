package evalx

import (
	"math"
	"testing"

	"fp8quant/internal/data"
	"fp8quant/internal/models"
	"fp8quant/internal/nn"
	"fp8quant/internal/quant"
)

// oracleAccuracy is the full-split evaluation the kept path replaces:
// every eval batch, read through the model's batch memo, runs through
// net, and the rows the reference drops are skipped after the forward.
func oracleAccuracy(net *models.Network, ref Reference) float64 {
	if net.Eval != models.Argmax {
		var a, b []float64
		for bi := EvalStart; bi < EvalEnd; bi++ {
			for _, v := range net.Run(net.Data.Batch(bi)).Data {
				a = append(a, float64(v))
			}
		}
		for _, v := range ref.Scores {
			b = append(b, float64(v))
		}
		return max(data.Pearson(a, b), 0)
	}
	i, kept, hit := 0, 0, 0
	for bi := EvalStart; bi < EvalEnd; bi++ {
		out := net.Run(net.Data.Batch(bi))
		cols := out.Shape[out.Rank()-1]
		for r := 0; r < out.Len()/cols; r, i = r+1, i+1 {
			if ref.Keep != nil && !ref.Keep[i] {
				continue
			}
			kept++
			if data.Argmax(out.Data[r*cols:(r+1)*cols]) == ref.Labels[i] {
				hit++
			}
		}
	}
	if kept == 0 {
		return 0
	}
	return float64(hit) / float64(kept)
}

// identityModels has one model per builder family: a BatchNorm CNN
// classifier, a ViT, a token encoder, a decoder LM, an audio model, the
// per-pixel UNet and the two Score models.
var identityModels = []string{
	"cifar_resnet20", "deit_tiny", "tinybert_mrpc", "gpt2_wikitext",
	"wav2vec2_librispeech", "unet_carvana", "bert_base_stsb", "dlrm_criteo",
}

// TestSplitMatchesFullSplitOracle holds Split.Accuracy to the full-split
// oracle bit for bit, on a planned network reused across recipes as a
// session's is: the kept path under E5M2 Direct, E4M3 Static and INT8
// Static, the full path under E4M3 Dynamic and for the Score models,
// each through the paper's per-domain settings (BNCalib, SmoothQuant).
func TestSplitMatchesFullSplitOracle(t *testing.T) {
	recipes := []quant.Recipe{
		quant.StandardFP8(quant.E5M2),
		quant.StandardFP8(quant.E4M3),
		quant.StandardINT8(false),
		quant.DynamicFP8(quant.E4M3),
	}
	for _, name := range identityModels {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			net, err := models.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			net.InstallPlan(nn.NewPlan(nil))
			ref := ComputeReference(net)
			sp := NewSplit(ref)
			for _, base := range recipes {
				r := PaperRecipe(base, net)
				h := quant.Quantize(net, net.Data, r)
				got := sp.Accuracy(net)
				want := oracleAccuracy(net, ref)
				h.Release()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: split accuracy %v, full-split oracle %v", base.Name(), got, want)
				}
			}
		})
	}
}

// TestSplitForwardsKeptSamples pins the work one Accuracy forwards: a
// one-row-per-sample Argmax model forwards its 115 kept samples in 8
// batches under a row-independent recipe, and the whole split, 384
// samples in 24 batches, under a Dynamic one.
func TestSplitForwardsKeptSamples(t *testing.T) {
	cases := []struct {
		recipe quant.Recipe
		want   Work
	}{
		{quant.StandardFP8(quant.E4M3), Work{Samples: 115, Batches: 8}},
		{quant.DynamicFP8(quant.E4M3), Work{Samples: 384, Batches: 24}},
	}
	for _, name := range []string{"densenet121", "tinybert_mrpc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			net, err := models.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			sp := NewSplit(ComputeReference(net))
			for _, c := range cases {
				h := quant.Quantize(net, net.Data, PaperRecipe(c.recipe, net))
				before := sp.Forwarded
				sp.Accuracy(net)
				h.Release()
				got := Work{sp.Forwarded.Samples - before.Samples, sp.Forwarded.Batches - before.Batches}
				if got != c.want {
					t.Errorf("%s forwarded %+v, want %+v", c.recipe.Name(), got, c.want)
				}
			}
		})
	}
}

// TestSplitPacksPerPixelSamples packs a per-pixel model's samples: every
// zoo reference keeps a row of each per-pixel sample, so the test thins
// unet_carvana's reference to the rows of every third sample. The kept
// path then forwards those 128 samples in 8 batches and matches the
// full-split oracle on the thinned reference bit for bit.
func TestSplitPacksPerPixelSamples(t *testing.T) {
	net, err := models.Build("unet_carvana")
	if err != nil {
		t.Fatal(err)
	}
	ref := ComputeReference(net)
	const samples = 384
	rps := len(ref.Keep) / samples
	if rps < 2 {
		t.Fatalf("unet_carvana has %d reference rows per sample, want several", rps)
	}
	thin := ref
	thin.Keep = make([]bool, len(ref.Keep))
	for i := range thin.Keep {
		thin.Keep[i] = ref.Keep[i] && (i/rps)%3 == 0
	}
	sp := NewSplit(thin)
	h := quant.Quantize(net, net.Data, PaperRecipe(quant.StandardFP8(quant.E4M3), net))
	got := sp.Accuracy(net)
	want := oracleAccuracy(net, thin)
	h.Release()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("split accuracy %v, full-split oracle %v", got, want)
	}
	if w := (Work{Samples: samples / 3, Batches: 8}); sp.Forwarded != w {
		t.Errorf("forwarded %+v, want %+v", sp.Forwarded, w)
	}
}
