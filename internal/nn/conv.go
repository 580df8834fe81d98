package nn

import (
	"fmt"

	"fp8quant/internal/tensor"
	"fp8quant/internal/tensor/kernels"
)

// Conv2d is a 2-D convolution over NCHW tensors with optional grouping
// (Groups == InC == OutC gives a depthwise convolution, the op that
// makes INT8 struggle on MobileNet/EfficientNet-style models).
type Conv2d struct {
	InC, OutC int
	K         int // square kernel size
	Stride    int
	Pad       int
	Groups    int
	// W has shape [OutC, InC/Groups, K, K].
	W *tensor.Tensor
	// B has length OutC; may be nil.
	B []float32
	// QS holds quantization hooks for the input activation.
	QS QState
}

// NewConv2d allocates a convolution layer with zero weights.
func NewConv2d(inC, outC, k, stride, pad, groups int) *Conv2d {
	if groups <= 0 {
		groups = 1
	}
	if inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: conv channels %d->%d not divisible by groups %d", inC, outC, groups))
	}
	return &Conv2d{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad, Groups: groups,
		W: tensor.New(outC, inC/groups, k, k),
		B: make([]float32, outC),
	}
}

// Kind implements Module.
func (c *Conv2d) Kind() string { return "Conv2d" }

// Q implements Quantizable.
func (c *Conv2d) Q() *QState { return &c.QS }

// WeightTensor implements Parametric.
func (c *Conv2d) WeightTensor() *tensor.Tensor { return c.W }

// OutChannelDim implements Parametric.
func (c *Conv2d) OutChannelDim() int { return 0 }

// OutSize returns the spatial output size for input size n.
func (c *Conv2d) OutSize(n int) int {
	return (n+2*c.Pad-c.K)/c.Stride + 1
}

// Forward convolves x [N, InC, H, W] producing [N, OutC, H', W'].
// Every output pixel goes through im2col + a blocked GEMM. Pixels are
// grouped into tap classes, and each class gathers and packs only its
// in-bounds taps: padding is skipped, never multiplied in as zeros
// (−0 + +0 and 0·Inf would change the bits). The GEMM thus forms the
// direct skip-on-pad loop's products in its (ic, ky, kx) order from a
// bias-seeded accumulator, bit-identical to forwardDirect, which the
// differential tests pin it against.
func (c *Conv2d) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: Conv2d expects [N,%d,H,W], got %v", c.InC, x.Shape))
	}
	x = c.QS.applyIn(a, x)
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.OutSize(h), c.OutSize(w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: Conv2d output empty for input %v", x.Shape))
	}
	y := a.New(n, c.OutC, oh, ow)
	c.forwardInto(a, y, x, n, h, w, oh, ow)
	return c.QS.applyOut(y)
}

// tapClass is a rectangle of output pixels [y0,y1)×[x0,x1) whose K×K
// windows all keep the same in-bounds kernel taps [ky0,ky1)×[kx0,kx1).
// With Pad == 0 the whole output is one class; 3×3/pad 1 gives at most
// nine (the interior, four edges, four corners).
type tapClass struct {
	y0, y1, x0, x1     int
	ky0, ky1, kx0, kx1 int
}

func (t tapClass) pixels() int { return (t.y1 - t.y0) * (t.x1 - t.x0) }
func (t tapClass) taps() int   { return (t.ky1 - t.ky0) * (t.kx1 - t.kx0) }

// tapRun returns the run [o0,o1) of output indices along one axis (on
// outputs over n inputs) whose windows keep o0's in-bounds kernel taps
// [k0,k1). The range is empty where a window misses the input entirely
// (e.g. the corners of K=1, Pad=1).
func (c *Conv2d) tapRun(o0, on, n int) (o1, k0, k1 int) {
	taps := func(o int) (int, int) {
		i0 := o*c.Stride - c.Pad
		lo := max(0, -i0)
		return lo, max(lo, min(c.K, n-i0))
	}
	k0, k1 = taps(o0)
	for o1 = o0 + 1; o1 < on; o1++ {
		if a, b := taps(o1); a != k0 || b != k1 {
			break
		}
	}
	return o1, k0, k1
}

// eachClass calls fn for the tap classes tiling an oh×ow output over an
// h×w input. Both tap bounds are monotone in the output index, so equal
// ranges form one contiguous run per axis.
func (c *Conv2d) eachClass(h, w, oh, ow int, fn func(tapClass)) {
	for y0 := 0; y0 < oh; {
		y1, ky0, ky1 := c.tapRun(y0, oh, h)
		for x0 := 0; x0 < ow; {
			x1, kx0, kx1 := c.tapRun(x0, ow, w)
			fn(tapClass{y0, y1, x0, x1, ky0, ky1, kx0, kx1})
			x0 = x1
		}
		y0 = y1
	}
}

// forwardInto runs each tap class through im2col + GEMM.
func (c *Conv2d) forwardInto(a *tensor.Arena, y, x *tensor.Tensor, n, h, w, oh, ow int) {
	icg := c.InC / c.Groups
	ocg := c.OutC / c.Groups
	// Degenerate GEMMs (depthwise: ocg=1, kdim=K²) spend more on the
	// gather/pack/scatter round trip than the multiply, so they take the
	// bit-identical direct loop instead.
	if ocg*icg*c.K*c.K < 64 {
		c.forwardDirect(y, x, n, h, w, oh, ow)
		return
	}

	// One buffer per forward, from the arena when planned and the pool
	// otherwise: patches, GEMM output, the class's weight taps and their
	// packed panel, each sized by the largest class.
	var maxPix, maxTaps int
	c.eachClass(h, w, oh, ow, func(t tapClass) {
		maxPix, maxTaps = max(maxPix, t.pixels()), max(maxTaps, t.taps())
	})
	kd := icg * maxTaps
	buf, pooled := scratch(a, (maxPix+ocg)*kd+maxPix*ocg+kernels.PanelFloats(kd, ocg))
	defer kernels.PutScratch(pooled)
	patches, buf := buf[:maxPix*kd], buf[maxPix*kd:]
	out, buf := buf[:maxPix*ocg], buf[maxPix*ocg:]
	wtaps, panel := buf[:ocg*kd], buf[ocg*kd:]

	c.eachClass(h, w, oh, ow, func(t tapClass) {
		kd := icg * t.taps()
		// The accumulator starts at the bias and NoFused keeps two
		// roundings under every variant, as in convPixel. Only the
		// interior class (all K×K taps) fans out over the worker pool;
		// the border classes are thin, and plans run one per worker.
		opt := kernels.Opt{Prologue: true, NoFused: true,
			Serial: a != nil || t.taps() < c.K*c.K}
		for g := 0; g < c.Groups; g++ {
			if c.B != nil {
				opt.Bias = c.B[g*ocg : (g+1)*ocg]
			}
			kernels.PackTInto(panel, c.tapWeights(wtaps, g, t), kd, ocg)
			for ni := 0; ni < n; ni++ {
				c.im2col(patches, x, ni, g, h, w, t)
				kernels.GemmPacked(out, patches, panel, t.pixels(), kd, ocg, opt)
				c.scatter(y, out, ni, g, oh, ow, t)
			}
		}
	})
}

// tapWeights returns group g's weights restricted to t's taps as a
// row-major [ocg, icg·taps] matrix in (ic, ky, kx) order, copied into
// dst unless t keeps every tap.
func (c *Conv2d) tapWeights(dst []float32, g int, t tapClass) []float32 {
	k := c.K
	rows := c.OutC / c.Groups * (c.InC / c.Groups) // one K×K block per (oc, ic)
	wg := c.W.Data[g*rows*k*k : (g+1)*rows*k*k]
	if t.taps() == k*k {
		return wg
	}
	kw := t.kx1 - t.kx0
	i := 0
	for r := 0; r < rows; r++ {
		for ky := t.ky0; ky < t.ky1; ky++ {
			off := (r*k+ky)*k + t.kx0
			i += copy(dst[i:i+kw], wg[off:off+kw])
		}
	}
	return dst[:i]
}

// im2col gathers class t's patches of sample ni, group g into dst as a
// row-major [pixels, icg·taps] matrix. Only in-bounds taps are read, in
// the direct loop's (ic, ky, kx) order, so the GEMM reduction replays
// convPixel exactly.
func (c *Conv2d) im2col(dst []float32, x *tensor.Tensor, ni, g, h, w int, t tapClass) {
	if t.taps() == 0 {
		return
	}
	icg := c.InC / c.Groups
	src := x.Data[(ni*c.InC+g*icg)*h*w : (ni*c.InC+(g+1)*icg)*h*w]
	kw := t.kx1 - t.kx0
	i := 0
	for oy := t.y0; oy < t.y1; oy++ {
		iy := oy*c.Stride - c.Pad
		for ox := t.x0; ox < t.x1; ox++ {
			ix := ox*c.Stride - c.Pad + t.kx0
			for ic := 0; ic < icg; ic++ {
				for ky := t.ky0; ky < t.ky1; ky++ {
					off := (ic*h+iy+ky)*w + ix
					i += copy(dst[i:i+kw], src[off:off+kw])
				}
			}
		}
	}
}

// scatter copies the GEMM output (row-major [pixels, ocg]) into class
// t's rectangle of y's channel planes.
func (c *Conv2d) scatter(y *tensor.Tensor, src []float32, ni, g, oh, ow int, t tapClass) {
	ocg := c.OutC / c.Groups
	cols := t.x1 - t.x0
	for oc := 0; oc < ocg; oc++ {
		plane := y.Data[(ni*c.OutC+g*ocg+oc)*oh*ow:]
		for oy := t.y0; oy < t.y1; oy++ {
			row := plane[oy*ow+t.x0 : oy*ow+t.x1]
			base := (oy-t.y0)*cols*ocg + oc
			for j := range row {
				row[j] = src[base+j*ocg]
			}
		}
	}
}

// convPixel is the direct skip-on-pad accumulation for one output
// element, the reference order the tap-class GEMM replays. The explicit
// float32 conversion rounds the product before the add, so no target
// fuses it into a multiply-add.
func (c *Conv2d) convPixel(x *tensor.Tensor, ni, oc, g, icg, h, w, oy, ox int, bias float32) float32 {
	acc := bias
	for ic := 0; ic < icg; ic++ {
		inC := g*icg + ic
		for ky := 0; ky < c.K; ky++ {
			iy := oy*c.Stride - c.Pad + ky
			if iy < 0 || iy >= h {
				continue
			}
			xRow := x.Data[((ni*c.InC+inC)*h+iy)*w:]
			wRow := c.W.Data[((oc*icg+ic)*c.K+ky)*c.K:]
			for kx := 0; kx < c.K; kx++ {
				ix := ox*c.Stride - c.Pad + kx
				if ix < 0 || ix >= w {
					continue
				}
				acc += float32(xRow[ix] * wRow[kx])
			}
		}
	}
	return acc
}

// forwardDirect is the original 7-deep direct convolution: the path for
// degenerate shapes and the differential-test oracle for im2col.
func (c *Conv2d) forwardDirect(y, x *tensor.Tensor, n, h, w, oh, ow int) {
	icg := c.InC / c.Groups
	ocg := c.OutC / c.Groups
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < c.OutC; oc++ {
			g := oc / ocg
			var bias float32
			if c.B != nil {
				bias = c.B[oc]
			}
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					y.Data[((ni*c.OutC+oc)*oh+oy)*ow+ox] =
						c.convPixel(x, ni, oc, g, icg, h, w, oy, ox, bias)
				}
			}
		}
	}
}

// MaxPool2d takes the max over non-overlapping K×K windows.
type MaxPool2d struct {
	K, Stride int
}

// Kind implements Module.
func (p *MaxPool2d) Kind() string { return "MaxPool2d" }

// Forward pools x [N,C,H,W].
func (p *MaxPool2d) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	return pool2d(a, x, p.K, p.Stride, true)
}

// AvgPool2d averages over K×K windows.
type AvgPool2d struct {
	K, Stride int
}

// Kind implements Module.
func (p *AvgPool2d) Kind() string { return "AvgPool2d" }

// Forward pools x [N,C,H,W].
func (p *AvgPool2d) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	return pool2d(a, x, p.K, p.Stride, false)
}

func pool2d(a *tensor.Arena, x *tensor.Tensor, k, stride int, max bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic("nn: pooling expects NCHW")
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-k)/stride + 1
	ow := (w-k)/stride + 1
	y := a.New(n, c, oh, ow)
	area := float32(k * k)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			plane := x.Data[(ni*c+ci)*h*w : (ni*c+ci+1)*h*w]
			out := y.Data[(ni*c+ci)*oh*ow : (ni*c+ci+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				// One slice per window row: the inner loops walk k
				// contiguous elements instead of recomputing the 4-D
				// offset (two multiplies) per element. The reduction
				// order over (ky, kx) is unchanged.
				top := oy * stride * w
				outRow := out[oy*ow : (oy+1)*ow]
				for ox := 0; ox < ow; ox++ {
					x0 := ox * stride
					var acc float32
					if max {
						acc = plane[top+x0]
						for ky := 0; ky < k; ky++ {
							row := plane[top+ky*w+x0 : top+ky*w+x0+k]
							for _, v := range row {
								if v > acc {
									acc = v
								}
							}
						}
					} else {
						for ky := 0; ky < k; ky++ {
							row := plane[top+ky*w+x0 : top+ky*w+x0+k]
							for _, v := range row {
								acc += v
							}
						}
						acc /= area
					}
					outRow[ox] = acc
				}
			}
		}
	}
	return y
}

// GlobalAvgPool reduces [N,C,H,W] to [N,C].
type GlobalAvgPool struct{}

// Kind implements Module.
func (GlobalAvgPool) Kind() string { return "GlobalAvgPool" }

// Forward averages each channel plane.
func (GlobalAvgPool) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic("nn: GlobalAvgPool expects NCHW")
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	y := a.New(n, c)
	area := float32(h * w)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			plane := x.Data[(ni*c+ci)*h*w : (ni*c+ci+1)*h*w]
			var s float32
			for _, v := range plane {
				s += v
			}
			y.Data[ni*c+ci] = s / area
		}
	}
	return y
}

// Flatten reshapes [N, ...] to [N, rest].
type Flatten struct{}

// Kind implements Module.
func (Flatten) Kind() string { return "Flatten" }

// Forward flattens all but the leading dimension. Only the reshaped
// view's header carves from a; the data is shared with x.
func (Flatten) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	return a.View(x.Data, x.Shape[0], x.Len()/x.Shape[0])
}

// Upsample2x nearest-neighbour upsamples [N,C,H,W] to [N,C,2H,2W]
// (used by the U-Net decoder path).
type Upsample2x struct{}

// Kind implements Module.
func (Upsample2x) Kind() string { return "Upsample2x" }

// Forward duplicates each pixel into a 2×2 block.
func (Upsample2x) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	y := a.New(n, c, 2*h, 2*w)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			src := x.Data[(ni*c+ci)*h*w:]
			dst := y.Data[(ni*c+ci)*4*h*w:]
			for iy := 0; iy < h; iy++ {
				for ix := 0; ix < w; ix++ {
					v := src[iy*w+ix]
					dst[(2*iy)*2*w+2*ix] = v
					dst[(2*iy)*2*w+2*ix+1] = v
					dst[(2*iy+1)*2*w+2*ix] = v
					dst[(2*iy+1)*2*w+2*ix+1] = v
				}
			}
		}
	}
	return y
}

// ConcatChannels concatenates two NCHW tensors along the channel dim
// (U-Net skip connections), carving the output from a.
func ConcatChannels(a *tensor.Arena, x, y *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || y.Rank() != 4 || x.Shape[0] != y.Shape[0] ||
		x.Shape[2] != y.Shape[2] || x.Shape[3] != y.Shape[3] {
		panic(fmt.Sprintf("nn: ConcatChannels shape mismatch %v vs %v", x.Shape, y.Shape))
	}
	n, cx, cy := x.Shape[0], x.Shape[1], y.Shape[1]
	h, w := x.Shape[2], x.Shape[3]
	out := a.New(n, cx+cy, h, w)
	hw := h * w
	for ni := 0; ni < n; ni++ {
		copy(out.Data[ni*(cx+cy)*hw:], x.Data[ni*cx*hw:(ni+1)*cx*hw])
		copy(out.Data[(ni*(cx+cy)+cx)*hw:], y.Data[ni*cy*hw:(ni+1)*cy*hw])
	}
	return out
}
