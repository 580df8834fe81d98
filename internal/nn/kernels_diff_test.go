package nn

import (
	"fmt"
	"math"
	"testing"

	"fp8quant/internal/tensor"
	"fp8quant/internal/tensor/kernels"
)

// These differential tests pin every layer routed through the blocked
// kernels (Linear, Conv2d im2col, BatchMatMul) to its scalar oracle,
// asserting exact bit equality over randomized shapes that exercise
// the tile remainders, grouped/strided/padded convolutions and rank>2
// linear inputs.

// matmulT computes y[r,o] = sum_k x[r,k] * w[o,k] for row-major
// buffers: x is [rows, in], w is [out, in], y is [rows, out].
// Accumulation is float32, matching typical FP8-with-FP32-accumulate
// hardware behaviour emulated by the paper. It is the scalar oracle
// the packed-GEMM Linear and BatchMatMul paths are pinned against: a
// single accumulator in ascending-k order, using the active variant's
// multiply-accumulate (two roundings on the generic/sse tiers, the
// exactly-rounded fused step on avx2).
func matmulT(y, x, w []float32, rows, in, out int) {
	madd := kernels.RefMadd(kernels.Active())
	for r := 0; r < rows; r++ {
		xr := x[r*in : (r+1)*in]
		yr := y[r*out : (r+1)*out]
		for o := 0; o < out; o++ {
			wo := w[o*in : (o+1)*in]
			var acc float32
			for k := range xr {
				acc = madd(acc, xr[k], wo[k])
			}
			yr[o] = acc
		}
	}
}

func fillTensor(t *tensor.Tensor, rng *tensor.RNG, scale float64) {
	for i := range t.Data {
		v := rng.Norm() * scale
		// A few huge and tiny magnitudes so any reassociation of the
		// reduction would change the rounding and fail the comparison.
		switch i % 11 {
		case 0:
			v *= 1e5
		case 7:
			v *= 1e-5
		}
		t.Data[i] = float32(v)
	}
}

func requireBitsEqual(t *testing.T, got, want []float32, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: first bit difference at %d: %x vs %x (%g vs %g)",
				what, i, math.Float32bits(got[i]), math.Float32bits(want[i]), got[i], want[i])
		}
	}
}

// linearOracle computes Linear.Forward's result with the original
// scalar loop: matmulT then a separate bias pass.
func linearOracle(l *Linear, x *tensor.Tensor) []float32 {
	rows, _ := flatten2D(x)
	y := make([]float32, rows*l.Out)
	matmulT(y, x.Data, l.W.Data, rows, l.In, l.Out)
	if l.B != nil {
		for r := 0; r < rows; r++ {
			row := y[r*l.Out : (r+1)*l.Out]
			for j := range row {
				row[j] += l.B[j]
			}
		}
	}
	return y
}

func TestLinearForwardMatchesOracle(t *testing.T) {
	rng := tensor.NewRNG(0x11EA)
	cases := []struct {
		shape []int
		out   int
		bias  bool
	}{
		{[]int{1, 1}, 1, true},
		{[]int{3, 7}, 5, true},
		{[]int{16, 256}, 256, true},
		{[]int{5, 33}, 17, false},
		{[]int{2, 3, 31}, 13, true},   // rank-3 input
		{[]int{2, 2, 4, 9}, 11, true}, // rank-4 input
		{[]int{7, 129}, 65, true},     // both tile remainders
	}
	for _, tc := range cases {
		in := tc.shape[len(tc.shape)-1]
		l := NewLinear(in, tc.out)
		fillTensor(l.W, rng, 0.2)
		if tc.bias {
			for i := range l.B {
				l.B[i] = float32(rng.Norm())
			}
		} else {
			l.B = nil
		}
		x := tensor.New(tc.shape...)
		fillTensor(x, rng, 1)
		got := l.Forward(nil, x)
		want := linearOracle(l, x)
		requireBitsEqual(t, got.Data, want, fmt.Sprintf("Linear %v->%d bias=%v", tc.shape, tc.out, tc.bias))
	}
}

// newRectConv allocates a KH×KW convolution with zero weights, as the
// speech models build their 1×K feature extractor.
func newRectConv(inC, outC, kh, kw, stride, padH, padW, groups int) *Conv2d {
	return &Conv2d{InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, PadH: padH, PadW: padW,
		Groups: groups, W: tensor.New(outC, inC/groups, kh, kw), B: make([]float32, outC)}
}

func TestConv2dForwardMatchesDirectOracle(t *testing.T) {
	rng := tensor.NewRNG(0xC0F)
	cases := []struct {
		inC, outC, k, stride, pad, groups int
		n, h, w                           int
	}{
		{3, 8, 3, 1, 1, 1, 2, 9, 9},
		{4, 4, 3, 1, 1, 4, 1, 8, 10},   // depthwise
		{8, 12, 3, 2, 1, 4, 2, 11, 13}, // grouped + strided, odd sizes
		{2, 5, 5, 1, 2, 1, 1, 7, 7},    // large kernel, pad 2
		{6, 6, 1, 1, 0, 1, 3, 5, 5},    // 1x1, no pad
		{2, 3, 3, 3, 1, 1, 1, 10, 10},  // stride > pad: interior col 0 empty
		{1, 1, 4, 2, 2, 1, 1, 6, 8},    // even kernel, pad 2
		{2, 2, 3, 1, 1, 1, 1, 3, 3},    // 3x3 output: single interior pixel
		{8, 8, 3, 1, 1, 1, 2, 1, 1},    // 1x1 map: one centre-tap class
		{8, 8, 3, 1, 1, 1, 2, 2, 2},    // 2x2 map: four corner classes
		{4, 6, 5, 1, 2, 1, 1, 3, 3},    // K=5/pad 2 on 3x3: nine 1-pixel classes
		{8, 8, 1, 1, 1, 1, 2, 4, 5},    // K=1/pad 1: zero-tap border
		{6, 8, 3, 2, 1, 1, 2, 9, 7},    // stride 2, odd sizes
		{6, 8, 3, 2, 1, 2, 1, 8, 5},    // stride 2, even/odd, grouped
	}
	for _, tc := range cases {
		c := NewConv2d(tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.groups)
		fillTensor(c.W, rng, 0.3)
		for i := range c.B {
			c.B[i] = float32(rng.Norm())
		}
		x := tensor.New(tc.n, tc.inC, tc.h, tc.w)
		fillTensor(x, rng, 1)
		requireConvMatchesDirect(t, c, x, fmt.Sprintf("Conv2d %+v", tc))
	}
	// Rectangular kernels with per-axis padding: the speech models'
	// 1×K feature extractor over a waveform viewed one row high, and
	// one shape on each side of the direct path's 64-product threshold.
	rect := []struct {
		inC, outC, kh, kw, stride, padH, padW int
		n, h, w                               int
	}{
		{1, 8, 1, 5, 4, 0, 2, 2, 1, 256}, // audio conv0: 40 products, direct
		{8, 32, 1, 5, 4, 0, 2, 2, 1, 64}, // audio conv1: tap-class GEMM
		{1, 1, 1, 1, 1, 0, 0, 1, 1, 8},   // 1×1 over a row
		{2, 4, 1, 5, 4, 0, 2, 2, 1, 64},  // 1×5 stride 4, pad 2
		{1, 1, 1, 3, 1, 0, 0, 1, 1, 4},   // 1×3, no pad
		{2, 3, 1, 3, 1, 0, 1, 1, 1, 6},   // 1×3, pad 1
		{3, 4, 5, 1, 1, 2, 0, 2, 7, 6},   // 5×1: 60 products, direct
		{2, 4, 4, 2, 1, 1, 0, 2, 6, 5},   // 4×2: 64 products, tap-class GEMM
		{3, 5, 3, 5, 2, 1, 2, 1, 9, 11},  // 3×5, stride 2, pads 1 and 2
	}
	for _, tc := range rect {
		c := newRectConv(tc.inC, tc.outC, tc.kh, tc.kw, tc.stride, tc.padH, tc.padW, 1)
		fillTensor(c.W, rng, 0.3)
		for i := range c.B {
			c.B[i] = float32(rng.Norm())
		}
		x := tensor.New(tc.n, tc.inC, tc.h, tc.w)
		fillTensor(x, rng, 1)
		requireConvMatchesDirect(t, c, x, fmt.Sprintf("Conv2d %+v", tc))
	}
}

// requireConvMatchesDirect checks that the unplanned and planned
// (NewPlan) forwards both equal forwardDirect bit for bit.
func requireConvMatchesDirect(t *testing.T, c *Conv2d, x *tensor.Tensor, what string) {
	t.Helper()
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.OutSize(h, w)
	want := tensor.New(n, c.OutC, oh, ow)
	c.forwardDirect(want, x, n, h, w, oh, ow)
	requireBitsEqual(t, c.Forward(nil, x).Data, want.Data, what+" unplanned")
	requireBitsEqual(t, NewPlan(c).Forward(x).Data, want.Data, what+" planned")
}

// TestConv2dInfWeightBitIdentical guards why tap classes gather only
// in-bounds taps instead of zero-filling im2col: with an Inf weight
// (IEEE formats overflow to Inf under fake-quant), a zero-padded patch
// would turn skip-on-pad into 0·Inf = NaN. Every tap position gets the
// Inf in turn, so each border class meets it. A −0 bias over an
// all-zero input pins the other half: a padded zero product would turn
// the zero-tap outputs of K=1/pad 1 from −0 into +0.
func TestConv2dInfWeightBitIdentical(t *testing.T) {
	rng := tensor.NewRNG(0x1FF)
	for tap := 0; tap < 9; tap++ {
		c := NewConv2d(8, 8, 3, 1, 1, 1)
		fillTensor(c.W, rng, 0.3)
		c.W.Data[tap] = float32(math.Inf(1)) // output 0, input channel 0
		x := tensor.New(1, 8, 6, 6)
		fillTensor(x, rng, 1)
		requireConvMatchesDirect(t, c, x, fmt.Sprintf("Conv2d with Inf weight at tap %d", tap))
	}
	for _, k := range []int{1, 3} {
		c := NewConv2d(8, 8, k, 1, 1, 1)
		fillTensor(c.W, rng, 0.3)
		for i := range c.B {
			c.B[i] = float32(math.Copysign(0, -1))
		}
		x := tensor.New(2, 8, 5, 5)
		requireConvMatchesDirect(t, c, x, fmt.Sprintf("Conv2d K=%d with -0 bias, zero input", k))
	}
}

// batchMatMulOracle is the pre-kernel BatchMatMul loop pair, built on
// the active variant's scalar multiply-accumulate (each yi[j] is a
// single accumulator updated in ascending-k order).
func batchMatMulOracle(a, b *tensor.Tensor, transB bool) []float32 {
	madd := kernels.RefMadd(kernels.Active())
	M := a.Shape[a.Rank()-2]
	K := a.Shape[a.Rank()-1]
	var N int
	if transB {
		N = b.Shape[b.Rank()-2]
	} else {
		N = b.Shape[b.Rank()-1]
	}
	batch := a.Len() / (M * K)
	y := make([]float32, batch*M*N)
	for bi := 0; bi < batch; bi++ {
		am := a.Data[bi*M*K : (bi+1)*M*K]
		bm := b.Data[bi*K*N : (bi+1)*K*N]
		ym := y[bi*M*N : (bi+1)*M*N]
		if transB {
			matmulT(ym, am, bm, M, K, N)
		} else {
			for i := 0; i < M; i++ {
				ai := am[i*K : (i+1)*K]
				yi := ym[i*N : (i+1)*N]
				for k := 0; k < K; k++ {
					av := ai[k]
					bk := bm[k*N : (k+1)*N]
					for j := range yi {
						yi[j] = madd(yi[j], av, bk[j])
					}
				}
			}
		}
	}
	return y
}

func TestBatchMatMulMatchesOracle(t *testing.T) {
	rng := tensor.NewRNG(0xB3B)
	cases := []struct {
		aShape, bShape []int
		transB         bool
	}{
		{[]int{3, 5}, []int{5, 7}, false},              // single matrix
		{[]int{3, 5}, []int{7, 5}, true},               // single, transposed
		{[]int{2, 4, 9, 16}, []int{2, 4, 9, 16}, true}, // QKᵀ shape
		{[]int{2, 4, 9, 9}, []int{2, 4, 9, 16}, false}, // PV shape
		{[]int{5, 13, 31}, []int{5, 31, 17}, false},    // odd extents
	}
	for _, tc := range cases {
		a := tensor.New(tc.aShape...)
		b := tensor.New(tc.bShape...)
		fillTensor(a, rng, 1)
		fillTensor(b, rng, 0.5)
		got := (&BatchMatMulOp{TransposeB: tc.transB}).Apply(nil, a, b)
		want := batchMatMulOracle(a, b, tc.transB)
		requireBitsEqual(t, got.Data, want,
			fmt.Sprintf("BatchMatMul %v x %v transB=%v", tc.aShape, tc.bShape, tc.transB))
	}
}

// TestPool2dMatchesReference pins the row-sliced pooling loops to the
// original per-element indexing.
func TestPool2dMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(0x901)
	x := tensor.New(2, 3, 11, 13)
	fillTensor(x, rng, 1)
	for _, k := range []int{2, 3} {
		for _, stride := range []int{1, 2, 3} {
			gotMax := (&MaxPool2d{K: k, Stride: stride}).Forward(nil, x)
			gotAvg := (&AvgPool2d{K: k, Stride: stride}).Forward(nil, x)
			wantMax, wantAvg := pool2dRef(x, k, stride)
			requireBitsEqual(t, gotMax.Data, wantMax.Data, fmt.Sprintf("MaxPool2d k=%d s=%d", k, stride))
			requireBitsEqual(t, gotAvg.Data, wantAvg.Data, fmt.Sprintf("AvgPool2d k=%d s=%d", k, stride))
		}
	}
}

// pool2dRef is the original pool2d with per-element 4-D offsets.
func pool2dRef(x *tensor.Tensor, k, stride int) (maxT, avgT *tensor.Tensor) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-k)/stride + 1
	ow := (w-k)/stride + 1
	maxT = tensor.New(n, c, oh, ow)
	avgT = tensor.New(n, c, oh, ow)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			plane := x.Data[(ni*c+ci)*h*w:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					mx := plane[(oy*stride)*w+ox*stride]
					var sum float32
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							v := plane[(oy*stride+ky)*w+(ox*stride+kx)]
							if v > mx {
								mx = v
							}
							sum += v
						}
					}
					maxT.Data[((ni*c+ci)*oh+oy)*ow+ox] = mx
					avgT.Data[((ni*c+ci)*oh+oy)*ow+ox] = sum / float32(k*k)
				}
			}
		}
	}
	return
}
