package models

import (
	"runtime"
	"testing"

	"fp8quant/internal/nn"
	"fp8quant/internal/textgen"
)

func TestRegistryCensus(t *testing.T) {
	if got := len(Names()); got != 75 {
		t.Fatalf("registry has %d models, want 75", got)
	}
	wantByDomain := map[Domain]int{CV: 34, NLP: 38, Audio: 2, RecSys: 1}
	for d, want := range wantByDomain {
		if got := len(NamesByDomain(d)); got != want {
			t.Errorf("%s has %d models, want %d", d, got, want)
		}
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := Build("nonexistent_model"); err == nil {
		t.Error("expected error for unknown model")
	}
}

func TestInfoMetadata(t *testing.T) {
	for _, name := range Names() {
		info, ok := InfoFor(name)
		if !ok {
			t.Fatalf("no info for %s", name)
		}
		if info.Name != name {
			t.Errorf("info name mismatch: %s vs %s", info.Name, name)
		}
		if info.SizeMB <= 0 {
			t.Errorf("%s: non-positive size", name)
		}
		if info.Task == "" {
			t.Errorf("%s: empty task", name)
		}
	}
}

func TestSizeClasses(t *testing.T) {
	cases := []struct {
		mb   float64
		want string
	}{{10, "tiny"}, {32, "tiny"}, {100, "small"}, {384, "small"},
		{400, "medium"}, {512, "medium"}, {1000, "large"}}
	for _, c := range cases {
		if got := (Info{SizeMB: c.mb}).SizeClass(); got != c.want {
			t.Errorf("SizeClass(%v) = %s, want %s", c.mb, got, c.want)
		}
	}
}

// TestBuildAndForwardRepresentatives builds one model per family and
// checks the forward pass produces finite outputs of the right shape.
func TestBuildAndForwardRepresentatives(t *testing.T) {
	reps := []string{
		"resnet18", "vgg11", "densenet121", "mobilenet_v2", "shufflenet_v2",
		"efficientnet_b0", "googlenet", "squeezenet", "yolov3", "cifar_resnet20",
		"vit_small", "swin_tiny", "unet_carvana", "stable_diffusion_unet",
		"bert_base_mrpc", "distilbert_sst2", "longformer_mrpc", "funnel_mrpc",
		"gpt2_wikitext", "bloom_560m", "llama_7b", "marianmt_enro",
		"pegasus_samsum", "wav2vec2_librispeech", "dlrm_criteo",
	}
	for _, name := range reps {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			net, err := Build(name)
			if err != nil {
				t.Fatal(err)
			}
			out := net.Run(net.Data.Batch(0))
			if out.Len() == 0 {
				t.Fatal("empty output")
			}
			if out.Shape[out.Rank()-1] != net.Classes {
				t.Errorf("last dim %d != classes %d", out.Shape[out.Rank()-1], net.Classes)
			}
			am := out.AbsMax()
			if am == 0 {
				t.Error("all-zero output")
			}
			if am > 1e4 {
				t.Errorf("output magnitude %v suggests a conditioning bug", am)
			}
		})
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, _ := Build("bert_base_mrpc")
	b, _ := Build("bert_base_mrpc")
	oa := a.Run(a.Data.Batch(0))
	ob := b.Run(b.Data.Batch(0))
	for i := range oa.Data {
		if oa.Data[i] != ob.Data[i] {
			t.Fatal("Build must be deterministic")
		}
	}
}

func TestCNNFlagConsistency(t *testing.T) {
	// Every conv-backbone CV model should set IsCNN; transformers not.
	for _, name := range []string{"resnet18", "vgg11", "yolov3"} {
		info, _ := InfoFor(name)
		if !info.IsCNN {
			t.Errorf("%s should be IsCNN", name)
		}
	}
	for _, name := range []string{"vit_small", "bert_base_mrpc", "bloom_560m"} {
		info, _ := InfoFor(name)
		if info.IsCNN {
			t.Errorf("%s should not be IsCNN", name)
		}
	}
}

func TestWarmBatchNormsConditions(t *testing.T) {
	net, _ := Build("resnet18")
	// After build-time warming, intermediate magnitudes must be sane.
	out := net.Run(net.Data.Batch(3))
	if out.AbsMax() > 100 {
		t.Errorf("warmed CNN output absmax %v too large", out.AbsMax())
	}
	// BN stats should be near the true data statistics: re-warming
	// must barely change the output.
	before := out.Clone()
	WarmBatchNorms(net, 4)
	after := net.Run(net.Data.Batch(3))
	for i := range after.Data {
		d := float64(after.Data[i] - before.Data[i])
		if d > 0.5 || d < -0.5 {
			t.Fatalf("re-warming moved outputs by %v: warming had not converged", d)
		}
	}
}

func TestNLPModelsHaveOutlierChannels(t *testing.T) {
	// Outlier-ratio models must actually produce high-kurtosis
	// activations inside the network (check an encoder LN gamma).
	net, _ := Build("bert_base_mrpc")
	maxGamma := 0.0
	nn.Walk(net.Root(), func(_ string, m nn.Module) {
		if ln, ok := m.(*nn.LayerNorm); ok {
			for _, g := range ln.Gamma {
				a := float64(g)
				if a < 0 {
					a = -a
				}
				if a > maxGamma {
					maxGamma = a
				}
			}
		}
	})
	if maxGamma < 10 {
		t.Errorf("max |gamma| = %v; outlier spikes missing", maxGamma)
	}
}

func TestGenLM(t *testing.T) {
	lm := NewGenLM(1)
	if lm.Vocab() != nlpVocab {
		t.Fatalf("vocab %d", lm.Vocab())
	}
	lg := lm.NextLogits([][]int{{1, 2, 3}, {4, 5, 6}})
	if lg.Shape[0] != 2 || lg.Shape[1] != nlpVocab {
		t.Fatalf("logits shape %v", lg.Shape)
	}
	// Longer context changes the prediction (causal attention works).
	// The logits live in the GenLM's plan until its next forward.
	a := lm.NextLogits([][]int{{1, 2, 3}}).Clone()
	b := lm.NextLogits([][]int{{9, 2, 3}})
	same := true
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("context should influence next-token logits")
	}
}

// TestGenLMGrowsOnOnePlan runs a GenLM over a sequence that grows a
// token per step, as beam search does, past the length where its
// attention scores outgrow one arena chunk. Every step's logits
// bit-equal the unplanned forward's, and the GenLM then holds about
// the heap of one forward at the final length: its plan shed the
// chunks of the shorter steps.
func TestGenLMGrowsOnOnePlan(t *testing.T) {
	const beams, maxLen = 4, 80
	seq := func(n int) [][]int {
		toks := make([][]int, beams)
		for b := range toks {
			for i := 0; i < n; i++ {
				toks[b] = append(toks[b], (b*31+i*7)%nlpVocab)
			}
		}
		return toks
	}
	// live returns the heap f leaves reachable.
	live := func(f func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		f()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		return m1.HeapAlloc - min(m0.HeapAlloc, m1.HeapAlloc)
	}
	var grown, single *GenLM
	grownBytes := live(func() {
		grown = NewGenLM(3)
		for n := 1; n <= maxLen; n++ {
			toks := seq(n)
			if !bitEqual(grown.NextLogits(toks), grown.Net.LastLogits(nil, toks)) {
				t.Fatalf("length %d: planned logits differ from the unplanned forward", n)
			}
		}
	})
	singleBytes := live(func() {
		single = NewGenLM(3)
		single.NextLogits(seq(maxLen))
	})
	if grownBytes > singleBytes+singleBytes/4 {
		t.Errorf("a GenLM grown to %d tokens holds %d heap bytes, more than 1.25x the %d of one forward at that length", maxLen, grownBytes, singleBytes)
	}
	runtime.KeepAlive(grown)
	runtime.KeepAlive(single)
}

// TestGenLMBeamSearchAllocation bounds what one table4-sized beam
// search (beam 4, 100 new tokens after a 32-token prompt) allocates. A
// GenLM that dropped its plan's forward chunks before every longer
// forward allocated 272 MB; one that never drops them allocates 132 MB
// but holds about as much. Trimming only after a forward outgrew its
// chunks allocates 125.5 MB (avx2, Go 1.24).
func TestGenLMBeamSearchAllocation(t *testing.T) {
	lm := NewGenLM(0x7AB4)
	prompt := make([]int, 32)
	for i := range prompt {
		prompt[i] = (i*7 + 3) % lm.Vocab()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	textgen.BeamSearch(lm, prompt, 4, 100)
	runtime.ReadMemStats(&m1)
	mb := float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	t.Logf("beam search allocated %.1f MB", mb)
	if mb > 150 {
		t.Errorf("beam search allocated %.1f MB, want at most 150", mb)
	}
}

func TestModelWalkFindsQuantizableOps(t *testing.T) {
	cases := map[string][]string{
		"bert_base_mrpc":       {"Linear", "LayerNorm", "Embedding", "BatchMatMul", "Add"},
		"resnet18":             {"Conv2d", "BatchNorm", "Linear", "Add"},
		"dlrm_criteo":          {"Linear", "EmbeddingBag"},
		"wav2vec2_librispeech": {"Conv2d", "Linear", "LayerNorm"},
	}
	for name, kinds := range cases {
		net, _ := Build(name)
		found := map[string]bool{}
		nn.Walk(net.Root(), func(_ string, m nn.Module) {
			found[m.Kind()] = true
		})
		for _, k := range kinds {
			if !found[k] {
				t.Errorf("%s: operator %s not found in walk", name, k)
			}
		}
	}
}
