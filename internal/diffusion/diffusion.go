// Package diffusion implements a miniature latent diffusion pipeline —
// a conditioned U-Net denoiser iterated over a deterministic denoise
// schedule — plus exact diagonal-Gaussian FID, reproducing the Figure 6
// / Appendix A.2 Stable Diffusion image-quality comparison. The paper's
// FID ordering across quantization formats follows per-step denoiser
// error; the same quantity drives this simulation.
package diffusion

import (
	"math"

	"fp8quant/internal/data"
	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// Latent geometry of the miniature pipeline.
const (
	LatentC = 4
	LatentH = 8
	LatentW = 8
	// Steps is the number of denoising iterations.
	Steps = 6
)

// Denoiser is the conditioned latent U-Net: two GroupNorm+SiLU conv
// stages with a skip connection, plus a prompt-conditioning projection
// added to the bottleneck (a stand-in for cross-attention).
type Denoiser struct {
	Enc1, Enc2 *nn.GNConv
	Dec1       *nn.GNConv
	Out        *nn.Conv2d
	CondProj   *nn.Linear
	condDim    int
}

// Kind implements nn.Module.
func (d *Denoiser) Kind() string { return "Denoiser" }

// Visit implements nn.Container.
func (d *Denoiser) Visit(path string, v nn.Visitor) {
	nn.WalkChild(path+"/enc1", d.Enc1, v)
	nn.WalkChild(path+"/enc2", d.Enc2, v)
	nn.WalkChild(path+"/dec1", d.Dec1, v)
	nn.WalkChild(path+"/out", d.Out, v)
	nn.WalkChild(path+"/cond", d.CondProj, v)
}

// Forward denoises latents without conditioning (Module interface).
func (d *Denoiser) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	return d.Denoise(a, x, nil)
}

// Denoise predicts the denoised latent given the current latent and an
// optional conditioning vector [N, condDim], carving from a.
func (d *Denoiser) Denoise(a *tensor.Arena, x, cond *tensor.Tensor) *tensor.Tensor {
	h := d.Enc1.Forward(a, x)
	h2 := d.Enc2.Forward(a, h)
	if cond != nil {
		// Project the prompt embedding and add per-channel at the
		// bottleneck.
		c := d.CondProj.Forward(a, cond) // [N, C2]
		n, ch := c.Shape[0], c.Shape[1]
		hw := h2.Len() / (n * ch)
		for ni := 0; ni < n; ni++ {
			for ci := 0; ci < ch; ci++ {
				add := c.At(ni, ci)
				seg := h2.Data[(ni*ch+ci)*hw : (ni*ch+ci+1)*hw]
				for i := range seg {
					seg[i] += add
				}
			}
		}
	}
	return d.Out.Forward(a, nn.ConcatChannels(a, d.Dec1.Forward(a, h2), h))
}

// NewDenoiser builds a denoiser with structured synthetic weights.
func NewDenoiser(seed uint64) *Denoiser {
	r := tensor.NewRNG(seed)
	mk := func(in, out int) *nn.GNConv {
		c := nn.NewConv2d(in, out, 3, 1, 1, 1)
		fillConv(c, r)
		gn := nn.NewGroupNorm(out, 2)
		// Diffusion U-Nets have order-of-magnitude per-channel
		// activation range spread (time/conditioning modulation);
		// log-normal gammas reproduce it, which is what pushes
		// per-tensor INT8 behind FP8 in Figure 6.
		for i := range gn.Gamma {
			gn.Gamma[i] = float32(math.Exp(1.0 * r.Norm()))
		}
		return &nn.GNConv{Conv: c, GN: gn}
	}
	d := &Denoiser{
		Enc1:     mk(LatentC, 8),
		Enc2:     mk(8, 12),
		Dec1:     mk(12, 8),
		Out:      nn.NewConv2d(16, LatentC, 1, 1, 0, 1),
		CondProj: nn.NewLinear(16, 12),
		condDim:  16,
	}
	fillConv(d.Out, r)
	fillLinear(d.CondProj, r)
	// Trained-network compensation: a channel whose upstream gamma is
	// small carries its information at small magnitude, and training
	// grows the downstream weights reading it by the inverse factor so
	// every channel contributes equally to the output. Without this
	// compensation a quantizer could erase low-magnitude channels for
	// free; with it, absolute-precision formats (INT8 per-tensor
	// activations) pay the full price while FP8's relative precision
	// does not — the Figure 6 separation.
	compensate(d.Enc2.Conv, d.Enc1.GN.Gamma)
	compensate(d.Dec1.Conv, d.Enc2.GN.Gamma)
	outGammas := append(append([]float32(nil), d.Dec1.GN.Gamma...), d.Enc1.GN.Gamma...)
	compensate(d.Out, outGammas)
	return d
}

// compensate scales conv input-channel weights by 1/|gamma_prev|.
func compensate(c *nn.Conv2d, prevGamma []float32) {
	per := c.K * c.K
	for oc := 0; oc < c.OutC; oc++ {
		for ic := 0; ic < c.InC; ic++ {
			g := prevGamma[ic]
			if g < 0 {
				g = -g
			}
			if g < 1e-3 {
				g = 1e-3
			}
			seg := c.W.Data[(oc*c.InC+ic)*per : (oc*c.InC+ic+1)*per]
			for i := range seg {
				seg[i] /= g
			}
		}
	}
}

func fillConv(c *nn.Conv2d, r *tensor.RNG) {
	fan := c.InC * c.K * c.K
	std := 1.2 / float32(math.Sqrt(float64(fan)))
	for i := range c.W.Data {
		c.W.Data[i] = std * float32(r.Norm())
	}
}

func fillLinear(l *nn.Linear, r *tensor.RNG) {
	std := 1.0 / float32(math.Sqrt(float64(l.In)))
	for i := range l.W.Data {
		l.W.Data[i] = std * float32(r.Norm())
	}
}

// Pipeline bundles the denoiser with its prompt set and implements
// quant.Model so recipes apply directly.
type Pipeline struct {
	Net *Denoiser
	// Prompts are fixed synthetic prompt embeddings [P, condDim].
	Prompts *tensor.Tensor
	seed    uint64
}

// NewPipeline builds the generation pipeline with nPrompts synthetic
// prompt embeddings.
func NewPipeline(seed uint64, nPrompts int) *Pipeline {
	r := tensor.NewRNG(seed ^ 0xD1FF)
	p := tensor.New(nPrompts, 16)
	p.FillNormal(r, 0, 1)
	return &Pipeline{Net: NewDenoiser(seed), Prompts: p, seed: seed}
}

// Clone returns an independent pipeline with identical weights and
// prompts, rebuilt deterministically from the seed. Construction is
// cheap (the denoiser is small), so grid experiments give every cell
// its own clone and quantize without cross-cell interference.
func (p *Pipeline) Clone() *Pipeline {
	return NewPipeline(p.seed, p.Prompts.Shape[0])
}

// Root implements quant.Model.
func (p *Pipeline) Root() nn.Module { return p.Net }

// IsCNN implements quant.Model: diffusion U-Nets follow the paper's
// "Last Linear excluded" convention rather than the CNN first/last
// rule (Figure 6 sidebar), so the CNN exception is disabled.
func (p *Pipeline) IsCNN() bool { return false }

// SigmaIn is the input-scaling schedule across denoising steps: early
// steps see large-magnitude noisy latents, late steps small residuals
// (a ~30x span, as in Karras-style schedules). Static activation
// calibration sees the early-step scale; formats whose precision is
// *absolute* (INT8) lose resolution at the late steps while FP8's
// log-spaced grid keeps relative precision at every scale — the
// mechanism behind Figure 6's FID gap.
func SigmaIn(step int) float32 {
	s := float32(4.0)
	for i := 0; i < step; i++ {
		s *= 0.5
	}
	return s
}

// Run implements quant.Model: one denoising step on first-step-scaled
// noise latents conditioned on cycling prompts (used for calibration).
func (p *Pipeline) Run(s data.Sample) *tensor.Tensor {
	n := s.X.Shape[0]
	cond := tensor.New(n, 16)
	for i := 0; i < n; i++ {
		copy(cond.Data[i*16:], p.Prompts.Data[(i%p.Prompts.Shape[0])*16:(i%p.Prompts.Shape[0])*16+16])
	}
	x := s.X.Clone()
	x.Scale(SigmaIn(0))
	return p.Net.Denoise(nil, x, cond)
}

// CalibData returns a latent-noise dataset for calibration.
func (p *Pipeline) CalibData() data.Dataset {
	return &latentDataset{seed: p.seed ^ 0xCA11, batches: 8}
}

type latentDataset struct {
	seed    uint64
	batches int
}

func (l *latentDataset) Batches() int { return l.batches }
func (l *latentDataset) Batch(i int) data.Sample {
	r := tensor.NewRNG(l.seed + uint64(i)*977)
	x := tensor.New(4, LatentC, LatentH, LatentW)
	x.FillNormal(r, 0, 1)
	return data.Sample{X: x}
}

// Generate runs the full iterative denoising loop for nImages per
// prompt, returning flattened latent feature vectors [nImages*P, D].
// The schedule mixes the current latent with the denoiser prediction —
// a DDIM-like deterministic update x <- x + (f(x) - x) * alpha.
func (p *Pipeline) Generate(nImages int) *tensor.Tensor {
	nP := p.Prompts.Shape[0]
	dim := LatentC * LatentH * LatentW
	out := tensor.New(nImages*nP, dim)
	row := 0
	for pi := 0; pi < nP; pi++ {
		cond := tensor.New(1, 16)
		copy(cond.Data, p.Prompts.Data[pi*16:(pi+1)*16])
		for img := 0; img < nImages; img++ {
			r := tensor.NewRNG(p.seed ^ (uint64(pi) << 32) ^ uint64(img)*0x9E37)
			x := tensor.New(1, LatentC, LatentH, LatentW)
			x.FillNormal(r, 0, 1)
			for step := 0; step < Steps; step++ {
				// Scale the latent into the step's input range,
				// denoise, and rescale the prediction back: the
				// deterministic DDIM-like update
				// x <- x + alpha*(f(cin*x)/cin - x).
				cin := SigmaIn(step)
				inp := x.Clone()
				inp.Scale(cin)
				pred := p.Net.Denoise(nil, inp, cond)
				alpha := float32(0.6)
				inv := 1 / cin
				for i := range x.Data {
					x.Data[i] += alpha * (pred.Data[i]*inv - x.Data[i])
				}
			}
			copy(out.Data[row*dim:], x.Data)
			row++
		}
	}
	return out
}

// FIDAgainst computes the FID between this pipeline's generations and a
// reference feature set.
func FIDAgainst(ref, gen *tensor.Tensor) float64 {
	return data.FID(data.ComputeFIDStats(ref), data.ComputeFIDStats(gen))
}

var _ nn.Module = (*Denoiser)(nil)
