package models

import (
	"fmt"

	"fp8quant/internal/data"
	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// audioNet is the wav2vec2/HuBERT skeleton: a strided 1-D feature
// extractor over raw waveform (Conv2d with 1×K kernels over the
// waveform viewed one row high), LayerNorm, a transformer encoder
// stack, and a token classifier (CTC-style head).
type audioNet struct {
	Convs  []*nn.Conv2d
	LN     *nn.LayerNorm
	Layers []*nn.TransformerEncoderLayer
	Head   *nn.Linear
	dim    int
}

// Kind implements nn.Module.
func (a *audioNet) Kind() string { return "AudioNet" }

// Visit implements nn.Container.
func (a *audioNet) Visit(path string, v nn.Visitor) {
	for i, c := range a.Convs {
		nn.WalkChild(fmt.Sprintf("%s/conv%d", path, i), c, v)
	}
	nn.WalkChild(path+"/ln", a.LN, v)
	for i, l := range a.Layers {
		nn.WalkChild(fmt.Sprintf("%s/layer%d", path, i), l, v)
	}
	nn.WalkChild(path+"/head", a.Head, v)
}

// Forward transcribes a waveform batch [N,1,T] to frame logits pooled
// to [N, classes]. The convolutions run on a view of the batch as
// [N,1,1,T], sharing its data.
func (a *audioNet) Forward(ar *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	var act nn.GELU
	x = ar.View(x.Data, x.Shape[0], x.Shape[1], 1, x.Shape[2])
	for _, c := range a.Convs {
		x = act.Forward(ar, c.Forward(ar, x))
	}
	// [N, D, 1, T'] -> tokens [N, T', D]
	n, d, t := x.Shape[0], x.Shape[1], x.Shape[3]
	toks := ar.New(n, t, d)
	for ni := 0; ni < n; ni++ {
		for di := 0; di < d; di++ {
			row := x.Data[(ni*d+di)*t : (ni*d+di+1)*t]
			for ti, v := range row {
				toks.Data[(ni*t+ti)*d+di] = v
			}
		}
	}
	toks = a.LN.Forward(ar, toks)
	for _, l := range a.Layers {
		toks = l.Forward(ar, toks)
	}
	return a.Head.Forward(ar, meanPoolSeq(ar, toks))
}

func buildAudio(info Info, seed uint64, dim, layers, classes int, outlier float64) *Network {
	r := tensor.NewRNG(seed)
	net := &audioNet{
		LN:   nn.NewLayerNorm(dim),
		Head: nn.NewLinear(dim, classes),
		dim:  dim,
	}
	chans := []int{1, 8, dim}
	for i := 0; i+1 < len(chans); i++ {
		c := &nn.Conv2d{InC: chans[i], OutC: chans[i+1], KH: 1, KW: 5, Stride: 4, PadW: 2, Groups: 1,
			W: tensor.New(chans[i+1], chans[i], 1, 5), B: make([]float32, chans[i+1])}
		initConv(c, r)
		net.Convs = append(net.Convs, c)
	}
	initLN(net.LN, r)
	if outlier > 0 {
		spikeGammas(net.LN.Gamma, r, 1, outlier)
	}
	for i := 0; i < layers; i++ {
		l := nn.NewTransformerEncoderLayer(dim, 4, dim*2)
		initEncoderLayer(l, r)
		if outlier > 0 {
			spikeGammas(l.LN1.Gamma, r, 1, outlier)
		}
		net.Layers = append(net.Layers, l)
	}
	initLinear(net.Head, r)
	return &Network{
		Meta:    info,
		root:    net,
		fwd:     func(a *tensor.Arena, s data.Sample) *tensor.Tensor { return net.Forward(a, s.X) },
		Data:    &data.AudioDataset{N: 8, T: 256, NumBatches: nlpBatches, Seed: seed ^ 0xA0D10},
		Classes: classes,
	}
}

func init() {
	infoW := Info{Name: "wav2vec2_librispeech", Domain: Audio, Task: "librispeech-sim",
		SizeMB: 360, HasLN: true, OutlierRatio: 20}
	register(infoW, func(seed uint64) *Network { return buildAudio(infoW, seed, 32, 2, 30, 20) })

	infoH := Info{Name: "hubert_librispeech", Domain: Audio, Task: "librispeech-sim",
		SizeMB: 360, HasLN: true, OutlierRatio: 20}
	register(infoH, func(seed uint64) *Network { return buildAudio(infoH, seed, 32, 2, 30, 20) })
}
