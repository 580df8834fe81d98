package models

import (
	"fp8quant/internal/data"
	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// dlrmNet is the Deep Learning Recommendation Model: a bottom MLP over
// dense features, EmbeddingBag lookups for categorical features, a
// pairwise dot-product feature interaction, and a top MLP producing a
// CTR score.
type dlrmNet struct {
	Bottom1, Bottom2 *nn.Linear
	Bags             []*nn.EmbeddingBag
	Top1, Top2       *nn.Linear
	dim              int
}

// Kind implements nn.Module.
func (d *dlrmNet) Kind() string { return "DLRM" }

// Visit implements nn.Container.
func (d *dlrmNet) Visit(path string, v nn.Visitor) {
	nn.WalkChild(path+"/bottom1", d.Bottom1, v)
	nn.WalkChild(path+"/bottom2", d.Bottom2, v)
	for i, b := range d.Bags {
		nn.WalkChild(path+"/bag"+string(rune('a'+i)), b, v)
	}
	nn.WalkChild(path+"/top1", d.Top1, v)
	nn.WalkChild(path+"/top2", d.Top2, v)
}

// Forward is unsupported; DLRM consumes a dense+sparse sample.
func (d *dlrmNet) Forward(*tensor.Arena, *tensor.Tensor) *tensor.Tensor {
	panic("models: dlrmNet consumes dense+sparse samples; use Predict")
}

// Predict scores a batch: dense [N, DenseDim] plus categorical bags,
// carving from a.
func (d *dlrmNet) Predict(a *tensor.Arena, s data.Sample) *tensor.Tensor {
	var relu nn.ReLU
	dense := relu.Forward(a, d.Bottom1.Forward(a, s.X))
	dense = relu.Forward(a, d.Bottom2.Forward(a, dense)) // [N, dim]
	n := dense.Shape[0]

	// Feature vectors: dense + one per bag table. The fixed capacity
	// keeps the list on the stack.
	feats := make([]*tensor.Tensor, 0, 8)
	feats = append(feats, dense)
	for _, bag := range d.Bags {
		feats = append(feats, bag.LookupBags(a, s.Bags))
	}
	// Pairwise dot-product interactions + dense passthrough.
	nf := len(feats)
	nPairs := nf * (nf - 1) / 2
	top := a.New(n, d.dim+nPairs)
	for ni := 0; ni < n; ni++ {
		copy(top.Data[ni*(d.dim+nPairs):], dense.Data[ni*d.dim:(ni+1)*d.dim])
		k := d.dim
		for i := 0; i < nf; i++ {
			for j := i + 1; j < nf; j++ {
				var dot float32
				fi := feats[i].Data[ni*d.dim : (ni+1)*d.dim]
				fj := feats[j].Data[ni*d.dim : (ni+1)*d.dim]
				for z := range fi {
					dot += float32(fi[z] * fj[z])
				}
				top.Data[ni*(d.dim+nPairs)+k] = dot
				k++
			}
		}
	}
	var sig nn.Sigmoid
	h := relu.Forward(a, d.Top1.Forward(a, top))
	return sig.Forward(a, d.Top2.Forward(a, h)) // [N, 1] CTR score
}

func buildDLRM(info Info, seed uint64) *Network {
	r := tensor.NewRNG(seed)
	const denseDim, dim, vocab = 13, 8, 64
	net := &dlrmNet{
		Bottom1: nn.NewLinear(denseDim, 16),
		Bottom2: nn.NewLinear(16, dim),
		Top1:    nn.NewLinear(dim+3, 16),
		Top2:    nn.NewLinear(16, 1),
		dim:     dim,
	}
	for i := 0; i < 2; i++ {
		bag := nn.NewEmbeddingBag(vocab, dim)
		initEmbedding(bag.W, r)
		net.Bags = append(net.Bags, bag)
	}
	initLinear(net.Bottom1, r)
	initLinear(net.Bottom2, r)
	initLinear(net.Top1, r)
	initLinear(net.Top2, r)
	return &Network{
		Meta: info,
		root: net,
		fwd:  func(a *tensor.Arena, s data.Sample) *tensor.Tensor { return net.Predict(a, s) },
		Data: &data.TabularDataset{N: 32, DenseDim: denseDim, Vocab: vocab,
			BagSize: 3, NumBatches: nlpBatches, Seed: seed ^ 0xD12A},
		Classes: 1,
		Eval:    Score,
	}
}

func init() {
	info := Info{Name: "dlrm_criteo", Domain: RecSys, Task: "criteo-sim", SizeMB: 2160}
	register(info, func(seed uint64) *Network { return buildDLRM(info, seed) })
}
