package models

import (
	"fp8quant/internal/data"
	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// unetNet is the encoder-decoder segmentation network with skip
// connections (U-Net / Carvana masking). Norm selects BatchNorm
// (classic U-Net) or GroupNorm + SiLU (diffusion denoiser style).
type unetNet struct {
	Enc1, Enc2 nn.Module
	Bottleneck nn.Module
	Dec1       nn.Module
	OutConv    *nn.Conv2d
	Pool       *nn.MaxPool2d
	Up         nn.Upsample2x
	// classes is the per-pixel logit count.
	classes int
}

// Kind implements nn.Module.
func (u *unetNet) Kind() string { return "UNet" }

// Visit implements nn.Container.
func (u *unetNet) Visit(path string, v nn.Visitor) {
	nn.WalkChild(path+"/enc1", u.Enc1, v)
	nn.WalkChild(path+"/enc2", u.Enc2, v)
	nn.WalkChild(path+"/bottleneck", u.Bottleneck, v)
	nn.WalkChild(path+"/dec1", u.Dec1, v)
	nn.WalkChild(path+"/out", u.OutConv, v)
}

// Forward segments x [N,C,H,W], returning per-pixel logits flattened to
// [N*H*W, classes] so the standard argmax-agreement evaluation applies
// per pixel.
func (u *unetNet) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	e1 := u.Enc1.Forward(a, x)                     // [N, c1, H, W]
	e2 := u.Enc2.Forward(a, u.Pool.Forward(a, e1)) // [N, c2, H/2, W/2]
	b := u.Bottleneck.Forward(a, e2)
	d := u.Up.Forward(a, b) // back to [.., H, W]
	d = nn.ConcatChannels(a, d, e1)
	d = u.Dec1.Forward(a, d)
	lg := u.OutConv.Forward(a, d) // [N, classes, H, W]
	n, c, h, w := lg.Shape[0], lg.Shape[1], lg.Shape[2], lg.Shape[3]
	out := a.New(n*h*w, c)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			plane := lg.Data[(ni*c+ci)*h*w : (ni*c+ci+1)*h*w]
			for p, v := range plane {
				out.Data[(ni*h*w+p)*c+ci] = v
			}
		}
	}
	return out
}

func newGNConv(r *tensor.RNG, inC, outC int) *nn.GNConv {
	c := nn.NewConv2d(inC, outC, 3, 1, 1, 1)
	initConv(c, r)
	gn := nn.NewGroupNorm(outC, 2)
	for i := range gn.Gamma {
		gn.Gamma[i] = float32(1 + float64(0.1*r.Norm()))
	}
	return &nn.GNConv{Conv: c, GN: gn}
}

func buildUNet(info Info, seed uint64, classes int, diffusionStyle bool) *Network {
	r := tensor.NewRNG(seed)
	var enc1, enc2, bott, dec1 nn.Module
	if diffusionStyle {
		enc1 = newGNConv(r, cvChans, 8)
		enc2 = newGNConv(r, 8, 16)
		bott = newGNConv(r, 16, 16)
		dec1 = newGNConv(r, 24, 8)
	} else {
		enc1 = newConvBN(r, cvChans, 8, 3, 1, 1, 1, nn.ReLU{})
		enc2 = newConvBN(r, 8, 16, 3, 1, 1, 1, nn.ReLU{})
		bott = newConvBN(r, 16, 16, 3, 1, 1, 1, nn.ReLU{})
		dec1 = newConvBN(r, 24, 8, 3, 1, 1, 1, nn.ReLU{})
	}
	out := nn.NewConv2d(8, classes, 1, 1, 0, 1)
	initConv(out, r)
	net := &unetNet{
		Enc1: enc1, Enc2: enc2, Bottleneck: bott, Dec1: dec1,
		OutConv: out, Pool: &nn.MaxPool2d{K: 2, Stride: 2}, classes: classes,
	}
	n := &Network{
		Meta:    info,
		root:    net,
		fwd:     func(a *tensor.Arena, s data.Sample) *tensor.Tensor { return net.Forward(a, s.X) },
		Data:    cvDataset(seed ^ 0x0E7),
		Classes: classes,
	}
	return n
}

func init() {
	infoU := Info{Name: "unet_carvana", Domain: CV, Task: "carvana-sim",
		SizeMB: 124, IsCNN: true, HasBN: true}
	register(infoU, func(seed uint64) *Network { return buildUNet(infoU, seed, 2, false) })

	infoF := Info{Name: "fcn_resnet50", Domain: CV, Task: "voc-seg-sim",
		SizeMB: 135, IsCNN: true, HasBN: true}
	register(infoF, func(seed uint64) *Network { return buildUNet(infoF, seed, 8, false) })

	infoS := Info{Name: "stable_diffusion_unet", Domain: CV, Task: "coco-gen-sim",
		SizeMB: 3400, IsCNN: true, HasLN: true}
	register(infoS, func(seed uint64) *Network { return buildUNet(infoS, seed, 4, true) })
}
