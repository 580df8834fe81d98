package models

import (
	"fmt"

	"fp8quant/internal/data"
	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// Shared NLP evaluation geometry.
const (
	nlpBatch   = 16
	nlpSeq     = 12
	nlpVocab   = 128
	nlpBatches = 16
)

func nlpDataset(seed uint64) data.Dataset {
	return &data.TokenDataset{N: nlpBatch, T: nlpSeq, Vocab: nlpVocab,
		NumBatches: nlpBatches, Seed: seed}
}

// encoderNet is a BERT-style encoder classifier: embedding → position →
// encoder layers → mean pool → classifier head.
type encoderNet struct {
	Emb    *nn.Embedding
	Pos    *nn.PositionalEmbedding
	EmbLN  *nn.LayerNorm
	Layers []*nn.TransformerEncoderLayer
	Head   *nn.Linear
	window int
}

// Kind implements nn.Module.
func (e *encoderNet) Kind() string { return "EncoderNet" }

// Visit implements nn.Container.
func (e *encoderNet) Visit(path string, v nn.Visitor) {
	nn.WalkChild(path+"/emb", e.Emb, v)
	nn.WalkChild(path+"/embln", e.EmbLN, v)
	for i, l := range e.Layers {
		nn.WalkChild(fmt.Sprintf("%s/layer%d", path, i), l, v)
	}
	nn.WalkChild(path+"/head", e.Head, v)
}

// Forward is unsupported; encoder models consume tokens via Predict.
func (e *encoderNet) Forward(*tensor.Arena, *tensor.Tensor) *tensor.Tensor {
	panic("models: encoderNet consumes tokens; use Predict")
}

// Predict runs the full pipeline on token input.
func (e *encoderNet) Predict(tokens [][]int) *tensor.Tensor {
	x := e.Emb.Lookup(tokens)
	x = e.Pos.Forward(nil, x)
	x = e.EmbLN.Forward(nil, x)
	for _, l := range e.Layers {
		x = l.Forward(nil, x)
	}
	return e.Head.Forward(nil, meanPoolSeq(nil, x))
}

// addTensors returns a + b element-wise (FP32 residual join).
func addTensors(a, b *tensor.Tensor) *tensor.Tensor {
	y := tensor.New(a.Shape...)
	for i := range y.Data {
		y.Data[i] = a.Data[i] + b.Data[i]
	}
	return y
}

// meanPoolSeq averages [B,T,D] over T, returning [B,D] carved from a.
func meanPoolSeq(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	b, t, d := x.Shape[0], x.Shape[1], x.Shape[2]
	y := a.New(b, d)
	inv := 1 / float32(t)
	for bi := 0; bi < b; bi++ {
		for ti := 0; ti < t; ti++ {
			src := x.Data[(bi*t+ti)*d : (bi*t+ti+1)*d]
			dst := y.Data[bi*d : (bi+1)*d]
			for i, v := range src {
				dst[i] += float32(v * inv)
			}
		}
	}
	return y
}

// encoderCfg parameterizes a BERT-family build.
type encoderCfg struct {
	dim, heads, ff, layers, classes int
	window                          int // sliding attention (Longformer)
	// outlier plants LayerNorm gamma spikes at the given magnitude
	// ratio; spikes/layer channels are affected.
	outlier float64
	spikes  int
	// scoreEval switches to Score (regression) evaluation.
	scoreEval bool
}

func buildEncoder(info Info, seed uint64, cfg encoderCfg) *Network {
	r := tensor.NewRNG(seed)
	net := &encoderNet{
		Emb:    nn.NewEmbedding(nlpVocab, cfg.dim),
		Pos:    nn.NewPositionalEmbedding(nlpSeq, cfg.dim),
		EmbLN:  nn.NewLayerNorm(cfg.dim),
		Head:   nn.NewLinear(cfg.dim, cfg.classes),
		window: cfg.window,
	}
	initEmbedding(net.Emb.W, r)
	net.Pos.W.FillNormal(r, 0, 0.1)
	initLN(net.EmbLN, r)
	for i := 0; i < cfg.layers; i++ {
		l := nn.NewTransformerEncoderLayer(cfg.dim, cfg.heads, cfg.ff)
		if cfg.window > 0 {
			l.Attn.Window = cfg.window
		}
		initEncoderLayer(l, r)
		if cfg.outlier > 0 {
			spikeGammas(l.LN1.Gamma, r, cfg.spikes, cfg.outlier)
			spikeGammas(l.LN2.Gamma, r, cfg.spikes, cfg.outlier)
		}
		net.Layers = append(net.Layers, l)
	}
	initLinear(net.Head, r)
	n := &Network{
		Meta:    info,
		root:    net,
		fwd:     func(s data.Sample) *tensor.Tensor { return net.Predict(s.Tokens) },
		Data:    nlpDataset(seed ^ 0x7E57),
		Classes: cfg.classes,
	}
	if cfg.scoreEval {
		n.Eval = Score
	}
	return n
}

func initLN(ln *nn.LayerNorm, r *tensor.RNG) {
	for i := range ln.Gamma {
		ln.Gamma[i] = float32(1 + 0.1*r.Norm())
		ln.Beta[i] = float32(0.05 * r.Norm())
	}
}

func initEncoderLayer(l *nn.TransformerEncoderLayer, r *tensor.RNG) {
	for _, lin := range []*nn.Linear{l.Attn.WQ, l.Attn.WK, l.Attn.WV, l.Attn.WO, l.FF.FC1, l.FF.FC2} {
		initLinear(lin, r)
	}
	initLN(l.LN1, r)
	initLN(l.LN2, r)
}

// decoderNet is a GPT/Bloom/LLaMA-style causal LM. Predict returns the
// next-token logits at the final position.
type decoderNet struct {
	Emb    *nn.Embedding
	Pos    *nn.PositionalEmbedding
	Layers []*nn.TransformerDecoderLayer
	Final  nn.Module // *LayerNorm or *RMSNorm
	LMHead *nn.Linear
}

// Kind implements nn.Module.
func (d *decoderNet) Kind() string { return "DecoderNet" }

// Visit implements nn.Container.
func (d *decoderNet) Visit(path string, v nn.Visitor) {
	nn.WalkChild(path+"/emb", d.Emb, v)
	for i, l := range d.Layers {
		nn.WalkChild(fmt.Sprintf("%s/layer%d", path, i), l, v)
	}
	nn.WalkChild(path+"/final", d.Final, v)
	nn.WalkChild(path+"/lmhead", d.LMHead, v)
}

// Forward is unsupported; decoder models consume tokens.
func (d *decoderNet) Forward(*tensor.Arena, *tensor.Tensor) *tensor.Tensor {
	panic("models: decoderNet consumes tokens; use Logits")
}

// Hidden runs the decoder trunk, returning [B,T,D] hidden states.
func (d *decoderNet) Hidden(tokens [][]int) *tensor.Tensor {
	x := d.Emb.Lookup(tokens)
	x = d.Pos.Forward(nil, x)
	for _, l := range d.Layers {
		x = l.Forward(nil, x)
	}
	return d.Final.Forward(nil, x)
}

// Logits returns next-token logits at every position: [B,T,V].
func (d *decoderNet) Logits(tokens [][]int) *tensor.Tensor {
	return d.LMHead.Forward(nil, d.Hidden(tokens))
}

// LastLogits returns the final-position logits [B,V].
func (d *decoderNet) LastLogits(tokens [][]int) *tensor.Tensor {
	return lastPosition(d.Logits(tokens))
}

// lastPosition copies the final position of each sequence out of
// logits [B,T,V], returning [B,V].
func lastPosition(lg *tensor.Tensor) *tensor.Tensor {
	b, t, v := lg.Shape[0], lg.Shape[1], lg.Shape[2]
	y := tensor.New(b, v)
	for bi := 0; bi < b; bi++ {
		copy(y.Data[bi*v:], lg.Data[(bi*t+t-1)*v:(bi*t+t)*v])
	}
	return y
}

type decoderCfg struct {
	dim, heads, ff, layers int
	llama                  bool // RMSNorm + SwiGLU
	outlier                float64
	spikes                 int
}

func newDecoderNet(r *tensor.RNG, cfg decoderCfg) *decoderNet {
	net := &decoderNet{
		Emb:    nn.NewEmbedding(nlpVocab, cfg.dim),
		Pos:    nn.NewPositionalEmbedding(nlpSeq+20, cfg.dim),
		LMHead: nn.NewLinear(cfg.dim, nlpVocab),
	}
	initEmbedding(net.Emb.W, r)
	net.Pos.W.FillNormal(r, 0, 0.1)
	for i := 0; i < cfg.layers; i++ {
		var l *nn.TransformerDecoderLayer
		if cfg.llama {
			l = nn.NewLlamaDecoderLayer(cfg.dim, cfg.heads, cfg.ff)
		} else {
			l = nn.NewTransformerDecoderLayer(cfg.dim, cfg.heads, cfg.ff)
		}
		initDecoderLayer(l, r)
		if cfg.outlier > 0 {
			switch ln := l.LN1.(type) {
			case *nn.LayerNorm:
				spikeGammas(ln.Gamma, r, cfg.spikes, cfg.outlier)
			case *nn.RMSNorm:
				spikeGammas(ln.Gamma, r, cfg.spikes, cfg.outlier)
			}
			switch ln := l.LN2.(type) {
			case *nn.LayerNorm:
				spikeGammas(ln.Gamma, r, cfg.spikes, cfg.outlier)
			case *nn.RMSNorm:
				spikeGammas(ln.Gamma, r, cfg.spikes, cfg.outlier)
			}
		}
		net.Layers = append(net.Layers, l)
	}
	if cfg.llama {
		rn := nn.NewRMSNorm(cfg.dim)
		for i := range rn.Gamma {
			rn.Gamma[i] = float32(1 + 0.1*r.Norm())
		}
		net.Final = rn
	} else {
		fl := nn.NewLayerNorm(cfg.dim)
		initLN(fl, r)
		net.Final = fl
	}
	initLinear(net.LMHead, r)
	return net
}

func initDecoderLayer(l *nn.TransformerDecoderLayer, r *tensor.RNG) {
	for _, lin := range []*nn.Linear{l.Attn.WQ, l.Attn.WK, l.Attn.WV, l.Attn.WO} {
		initLinear(lin, r)
	}
	switch ff := l.FF.(type) {
	case *nn.FFN:
		initLinear(ff.FC1, r)
		initLinear(ff.FC2, r)
	case *nn.SwiGLU:
		initLinear(ff.W1, r)
		initLinear(ff.W2, r)
		initLinear(ff.W3, r)
	}
	switch ln := l.LN1.(type) {
	case *nn.LayerNorm:
		initLN(ln, r)
	}
	switch ln := l.LN2.(type) {
	case *nn.LayerNorm:
		initLN(ln, r)
	}
}

func buildDecoder(info Info, seed uint64, cfg decoderCfg) *Network {
	r := tensor.NewRNG(seed)
	net := newDecoderNet(r, cfg)
	return &Network{
		Meta:    info,
		root:    net,
		fwd:     func(s data.Sample) *tensor.Tensor { return net.LastLogits(s.Tokens) },
		Data:    nlpDataset(seed ^ 0x6707),
		Classes: nlpVocab,
	}
}

// GenLM wraps a decoder network for text generation (textgen.LM): it
// exposes next-token logits plus the quant.Model contract so recipes
// can be applied to the generator directly.
type GenLM struct {
	Net *decoderNet
	// DataSet provides calibration batches.
	DataSet data.Dataset
	seed    uint64
}

// NewGenLM builds a Bloom-style generative LM for the Table 4 text
// generation study. The configuration mirrors the bloom_7b1 registry
// entry but is constructed standalone so generation experiments don't
// perturb the registry models.
func NewGenLM(seed uint64) *GenLM {
	r := tensor.NewRNG(seed)
	net := newDecoderNet(r, decoderCfg{dim: 48, heads: 4, ff: 96, layers: 3, outlier: 120, spikes: 2})
	// Generation runs far past the classification context length; give
	// the generator a long, strong positional table so the next-token
	// distribution stays position-dependent (beam search over a
	// position-independent random LM collapses into a periodic orbit,
	// which would mask the quantization effects Table 4 measures).
	net.Pos = nn.NewPositionalEmbedding(160, 48)
	net.Pos.W.FillNormal(r, 0, 0.6)
	return &GenLM{
		Net:     net,
		DataSet: nlpDataset(seed ^ 0x9E41),
		seed:    seed,
	}
}

// Clone returns an independent generator with identical weights,
// rebuilt deterministically from the seed — cheap enough that grid
// experiments build one per cell instead of sharing a mutated LM.
func (g *GenLM) Clone() *GenLM { return NewGenLM(g.seed) }

// NextLogits implements textgen.LM.
func (g *GenLM) NextLogits(tokens [][]int) *tensor.Tensor {
	return g.Net.LastLogits(tokens)
}

// Vocab implements textgen.LM.
func (g *GenLM) Vocab() int { return nlpVocab }

// Root implements quant.Model.
func (g *GenLM) Root() nn.Module { return g.Net }

// IsCNN implements quant.Model.
func (g *GenLM) IsCNN() bool { return false }

// Run implements quant.Model.
func (g *GenLM) Run(s data.Sample) *tensor.Tensor { return g.Net.LastLogits(s.Tokens) }

// encDecNet is a Marian/Pegasus-style encoder-decoder. The decoder
// attends over encoder memory through cross-attention.
type encDecNet struct {
	EncEmb, DecEmb *nn.Embedding
	EncPos, DecPos *nn.PositionalEmbedding
	Enc            []*nn.TransformerEncoderLayer
	DecSelf        []*nn.TransformerDecoderLayer
	Cross          []*nn.CrossAttention
	CrossLN        []*nn.LayerNorm
	Final          *nn.LayerNorm
	LMHead         *nn.Linear
}

// Kind implements nn.Module.
func (e *encDecNet) Kind() string { return "EncDecNet" }

// Visit implements nn.Container.
func (e *encDecNet) Visit(path string, v nn.Visitor) {
	nn.WalkChild(path+"/encemb", e.EncEmb, v)
	nn.WalkChild(path+"/decemb", e.DecEmb, v)
	for i, l := range e.Enc {
		nn.WalkChild(fmt.Sprintf("%s/enc%d", path, i), l, v)
	}
	for i, l := range e.DecSelf {
		nn.WalkChild(fmt.Sprintf("%s/dec%d", path, i), l, v)
		nn.WalkChild(fmt.Sprintf("%s/cross%d", path, i), e.Cross[i], v)
		nn.WalkChild(fmt.Sprintf("%s/crossln%d", path, i), e.CrossLN[i], v)
	}
	nn.WalkChild(path+"/final", e.Final, v)
	nn.WalkChild(path+"/lmhead", e.LMHead, v)
}

// Forward is unsupported; enc-dec models consume tokens.
func (e *encDecNet) Forward(*tensor.Arena, *tensor.Tensor) *tensor.Tensor {
	panic("models: encDecNet consumes tokens; use Translate")
}

// Translate encodes src tokens and decodes them (teacher forcing on the
// same tokens, standing in for a translation pair), returning final-
// position logits [B,V].
func (e *encDecNet) Translate(tokens [][]int) *tensor.Tensor {
	mem := e.EncPos.Forward(nil, e.EncEmb.Lookup(tokens))
	for _, l := range e.Enc {
		mem = l.Forward(nil, mem)
	}
	x := e.DecPos.Forward(nil, e.DecEmb.Lookup(tokens))
	for i, l := range e.DecSelf {
		x = l.Forward(nil, x)
		x = e.CrossLN[i].Forward(nil, addTensors(x, e.Cross[i].Attend(nil, x, mem)))
	}
	return lastPosition(e.LMHead.Forward(nil, e.Final.Forward(nil, x)))
}

func buildEncDec(info Info, seed uint64, dim, heads, ff, layers int, outlier float64) *Network {
	r := tensor.NewRNG(seed)
	net := &encDecNet{
		EncEmb: nn.NewEmbedding(nlpVocab, dim),
		DecEmb: nn.NewEmbedding(nlpVocab, dim),
		EncPos: nn.NewPositionalEmbedding(nlpSeq, dim),
		DecPos: nn.NewPositionalEmbedding(nlpSeq, dim),
		Final:  nn.NewLayerNorm(dim),
		LMHead: nn.NewLinear(dim, nlpVocab),
	}
	initEmbedding(net.EncEmb.W, r)
	initEmbedding(net.DecEmb.W, r)
	net.EncPos.W.FillNormal(r, 0, 0.1)
	net.DecPos.W.FillNormal(r, 0, 0.1)
	for i := 0; i < layers; i++ {
		enc := nn.NewTransformerEncoderLayer(dim, heads, ff)
		initEncoderLayer(enc, r)
		if outlier > 0 {
			spikeGammas(enc.LN1.Gamma, r, 1, outlier)
		}
		net.Enc = append(net.Enc, enc)

		dec := nn.NewTransformerDecoderLayer(dim, heads, ff)
		initDecoderLayer(dec, r)
		net.DecSelf = append(net.DecSelf, dec)

		ca := nn.NewCrossAttention(dim, heads)
		for _, lin := range []*nn.Linear{ca.WQ, ca.WK, ca.WV, ca.WO} {
			initLinear(lin, r)
		}
		net.Cross = append(net.Cross, ca)
		cl := nn.NewLayerNorm(dim)
		initLN(cl, r)
		if outlier > 0 {
			spikeGammas(cl.Gamma, r, 1, outlier)
		}
		net.CrossLN = append(net.CrossLN, cl)
	}
	initLN(net.Final, r)
	initLinear(net.LMHead, r)
	return &Network{
		Meta:    info,
		root:    net,
		fwd:     func(s data.Sample) *tensor.Tensor { return net.Translate(s.Tokens) },
		Data:    nlpDataset(seed ^ 0xE2CD),
		Classes: nlpVocab,
	}
}

func registerEncoder(name, task string, sizeMB float64, cfg encoderCfg) {
	info := Info{Name: name, Domain: NLP, Task: task, SizeMB: sizeMB,
		HasLN: true, OutlierRatio: cfg.outlier}
	register(info, func(seed uint64) *Network { return buildEncoder(info, seed, cfg) })
}

func registerDecoder(name, task string, sizeMB float64, cfg decoderCfg) {
	info := Info{Name: name, Domain: NLP, Task: task, SizeMB: sizeMB,
		HasLN: true, OutlierRatio: cfg.outlier}
	register(info, func(seed uint64) *Network { return buildDecoder(info, seed, cfg) })
}

func registerEncDec(name, task string, sizeMB float64, dim, heads, ff, layers int, outlier float64) {
	info := Info{Name: name, Domain: NLP, Task: task, SizeMB: sizeMB,
		HasLN: true, OutlierRatio: outlier}
	register(info, func(seed uint64) *Network {
		return buildEncDec(info, seed, dim, heads, ff, layers, outlier)
	})
}

func init() {
	// --- BERT family text classification (binary GLUE-style tasks).
	registerEncoder("bert_base_mrpc", "mrpc", 418, encoderCfg{dim: 32, heads: 4, ff: 64, layers: 2, classes: 2, outlier: 120, spikes: 1})
	registerEncoder("bert_base_cola", "cola", 418, encoderCfg{dim: 32, heads: 4, ff: 64, layers: 2, classes: 2, outlier: 105, spikes: 1})
	registerEncoder("bert_base_sst2", "sst2", 418, encoderCfg{dim: 32, heads: 4, ff: 64, layers: 2, classes: 2, outlier: 90, spikes: 1})
	registerEncoder("bert_base_stsb", "sts-b", 418, encoderCfg{dim: 32, heads: 4, ff: 64, layers: 2, classes: 1, outlier: 90, spikes: 1, scoreEval: true})
	registerEncoder("bert_large_cola", "cola", 1280, encoderCfg{dim: 48, heads: 4, ff: 96, layers: 3, classes: 2, outlier: 135, spikes: 2})
	registerEncoder("bert_large_rte", "rte", 1280, encoderCfg{dim: 48, heads: 4, ff: 96, layers: 3, classes: 2, outlier: 120, spikes: 2})
	registerEncoder("distilbert_mrpc", "mrpc", 256, encoderCfg{dim: 32, heads: 4, ff: 64, layers: 1, classes: 2, outlier: 75, spikes: 1})
	registerEncoder("distilbert_sst2", "sst2", 256, encoderCfg{dim: 32, heads: 4, ff: 64, layers: 1, classes: 2, outlier: 75, spikes: 1})
	registerEncoder("roberta_mrpc", "mrpc", 476, encoderCfg{dim: 32, heads: 4, ff: 64, layers: 2, classes: 2, outlier: 105, spikes: 1})
	registerEncoder("xlm_roberta_mrpc", "mrpc", 1040, encoderCfg{dim: 40, heads: 4, ff: 80, layers: 2, classes: 2, outlier: 105, spikes: 1})
	registerEncoder("albert_sst2", "sst2", 45, encoderCfg{dim: 24, heads: 4, ff: 48, layers: 2, classes: 2, outlier: 60, spikes: 1})
	registerEncoder("electra_sst2", "sst2", 52, encoderCfg{dim: 24, heads: 4, ff: 48, layers: 2, classes: 2, outlier: 60, spikes: 1})
	registerEncoder("minilm_sst2", "sst2", 120, encoderCfg{dim: 24, heads: 4, ff: 48, layers: 2, classes: 2, outlier: 54, spikes: 1})
	registerEncoder("tinybert_mrpc", "mrpc", 57, encoderCfg{dim: 16, heads: 2, ff: 32, layers: 2, classes: 2, outlier: 45, spikes: 1})
	registerEncoder("mobilebert_sst2", "sst2", 98, encoderCfg{dim: 24, heads: 4, ff: 48, layers: 2, classes: 2, outlier: 54, spikes: 1})
	registerEncoder("deberta_mnli", "mnli", 750, encoderCfg{dim: 40, heads: 4, ff: 80, layers: 2, classes: 3, outlier: 105, spikes: 1})
	registerEncoder("camembert_xnli", "xnli", 442, encoderCfg{dim: 32, heads: 4, ff: 64, layers: 2, classes: 3, outlier: 90, spikes: 1})
	registerEncoder("ernie_sst2", "sst2", 430, encoderCfg{dim: 32, heads: 4, ff: 64, layers: 2, classes: 2, outlier: 84, spikes: 1})
	registerEncoder("flaubert_cls", "cls-fr", 550, encoderCfg{dim: 32, heads: 4, ff: 64, layers: 2, classes: 2, outlier: 90, spikes: 1})
	registerEncoder("xlnet_sst2", "sst2", 467, encoderCfg{dim: 32, heads: 4, ff: 64, layers: 2, classes: 2, outlier: 90, spikes: 1})

	// Long-document and pathological-outlier encoders.
	registerEncoder("longformer_mrpc", "mrpc", 595, encoderCfg{dim: 32, heads: 4, ff: 64, layers: 2, classes: 2, window: 3, outlier: 180, spikes: 1})
	// Funnel exhibits the catastrophic E3M4 failure of Table 5: its
	// activation outliers exceed E3M4's dynamic range headroom.
	registerEncoder("funnel_mrpc", "mrpc", 508, encoderCfg{dim: 32, heads: 4, ff: 64, layers: 2, classes: 2, outlier: 400, spikes: 1})

	// --- Generative LMs (lambada-style next-token tasks).
	registerDecoder("gpt2_wikitext", "wikitext", 548, decoderCfg{dim: 32, heads: 4, ff: 64, layers: 2, outlier: 90, spikes: 1})
	registerDecoder("dialogpt_reddit", "dialog", 351, decoderCfg{dim: 32, heads: 4, ff: 64, layers: 2, outlier: 84, spikes: 1})
	registerDecoder("gpt_neo_lambada", "lambada", 657, decoderCfg{dim: 32, heads: 4, ff: 64, layers: 2, outlier: 96, spikes: 1})
	registerDecoder("opt_lambada", "lambada", 662, decoderCfg{dim: 32, heads: 4, ff: 64, layers: 2, outlier: 105, spikes: 1})
	registerDecoder("bloom_560m", "lambada", 1120, decoderCfg{dim: 32, heads: 4, ff: 64, layers: 2, outlier: 120, spikes: 1})
	registerDecoder("bloom_7b1", "lambada", 14200, decoderCfg{dim: 48, heads: 4, ff: 96, layers: 3, outlier: 135, spikes: 2})
	registerDecoder("bloom_176b", "lambada", 352000, decoderCfg{dim: 64, heads: 8, ff: 128, layers: 3, outlier: 150, spikes: 2})
	registerDecoder("llama_7b", "lambada", 13500, decoderCfg{dim: 48, heads: 4, ff: 96, layers: 3, llama: true, outlier: 120, spikes: 1})
	registerDecoder("llama_13b", "lambada", 26000, decoderCfg{dim: 56, heads: 4, ff: 112, layers: 3, llama: true, outlier: 160, spikes: 2})
	registerDecoder("llama_65b", "lambada", 131000, decoderCfg{dim: 64, heads: 8, ff: 128, layers: 3, llama: true, outlier: 220, spikes: 2})

	// --- Sequence-to-sequence (translation, summarization).
	registerEncDec("marianmt_enro", "wmt-en-ro", 298, 32, 4, 64, 2, 30)
	registerEncDec("pegasus_samsum", "samsum", 2280, 40, 4, 80, 2, 35)
	registerEncDec("t5_small_cnndm", "cnn-dm", 242, 32, 4, 64, 2, 25)
	registerEncDec("bart_xsum", "xsum", 532, 32, 4, 64, 2, 30)
	registerEncDec("mbart_enro", "wmt-en-ro", 2440, 40, 4, 80, 2, 35)
	registerEncDec("prophetnet_gigaword", "gigaword", 1560, 40, 4, 80, 2, 30)
}
