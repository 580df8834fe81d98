package models

import (
	"fmt"

	"fp8quant/internal/data"
	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// vitNet is a Vision Transformer: convolutional patch embedding →
// encoder layers over patch tokens → mean pool → classifier. ViTs are
// CV models without BatchNorm (LayerNorm instead) — one of the
// families the paper calls out as hard for INT8 (Figure 4 caption).
type vitNet struct {
	Patch  *nn.Conv2d
	Pos    *nn.PositionalEmbedding
	Layers []*nn.TransformerEncoderLayer
	Head   *nn.Linear
	dim    int
}

// Kind implements nn.Module.
func (v *vitNet) Kind() string { return "ViT" }

// Visit implements nn.Container.
func (v *vitNet) Visit(path string, vis nn.Visitor) {
	nn.WalkChild(path+"/patch", v.Patch, vis)
	for i, l := range v.Layers {
		nn.WalkChild(fmt.Sprintf("%s/layer%d", path, i), l, vis)
	}
	nn.WalkChild(path+"/head", v.Head, vis)
}

// Forward classifies an image batch [N,C,H,W].
func (v *vitNet) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	p := v.Patch.Forward(a, x) // [N, D, h, w]
	n, d, h, w := p.Shape[0], p.Shape[1], p.Shape[2], p.Shape[3]
	// To token sequence [N, h*w, D].
	toks := a.New(n, h*w, d)
	for ni := 0; ni < n; ni++ {
		for di := 0; di < d; di++ {
			plane := p.Data[(ni*d+di)*h*w : (ni*d+di+1)*h*w]
			for t, val := range plane {
				toks.Data[(ni*h*w+t)*d+di] = val
			}
		}
	}
	toks = v.Pos.Forward(a, toks)
	for _, l := range v.Layers {
		toks = l.Forward(a, toks)
	}
	return v.Head.Forward(a, meanPoolSeq(a, toks))
}

func buildViT(info Info, seed uint64, dim, heads, ff, layers, classes int, window int) *Network {
	r := tensor.NewRNG(seed)
	patch := nn.NewConv2d(cvChans, dim, 4, 4, 0, 1)
	initConv(patch, r)
	net := &vitNet{
		Patch: patch,
		Pos:   nn.NewPositionalEmbedding(16, dim),
		Head:  nn.NewLinear(dim, classes),
		dim:   dim,
	}
	net.Pos.W.FillNormal(r, 0, 0.1)
	for i := 0; i < layers; i++ {
		l := nn.NewTransformerEncoderLayer(dim, heads, ff)
		if window > 0 {
			l.Attn.Window = window // Swin-style local attention
		}
		initEncoderLayer(l, r)
		// CV transformers sit between CNNs and NLP: LayerNorm still
		// amplifies a few channels (~25x), enough to trouble
		// per-tensor INT8 (Figure 4 calls out ViT) but far milder
		// than NLP outliers.
		spikeGammas(l.LN1.Gamma, r, 2, 25)
		spikeGammas(l.LN2.Gamma, r, 2, 25)
		net.Layers = append(net.Layers, l)
	}
	initLinear(net.Head, r)
	return &Network{
		Meta:      info,
		root:      net,
		fwd:       func(s data.Sample) *tensor.Tensor { return net.Forward(nil, s.X) },
		Data:      cvDataset(seed ^ 0x517),
		Classes:   classes,
		plannable: true,
	}
}

func registerViT(name string, sizeMB float64, dim, heads, ff, layers, classes, window int) {
	info := Info{Name: name, Domain: CV, Task: "imagenet-sim", SizeMB: sizeMB, HasLN: true}
	register(info, func(seed uint64) *Network {
		return buildViT(info, seed, dim, heads, ff, layers, classes, window)
	})
}

func init() {
	registerViT("vit_small", 88, 32, 4, 64, 2, 40, 0)
	registerViT("vit_base", 346, 48, 4, 96, 3, 50, 0)
	registerViT("deit_tiny", 23, 24, 4, 48, 2, 30, 0)
	registerViT("swin_tiny", 113, 32, 4, 64, 2, 30, 2)
}
