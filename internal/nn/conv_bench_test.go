package nn

import (
	"testing"

	"fp8quant/internal/tensor"
)

// convBenchCases span the shapes that dominate the CNN zoo: a padded
// 3x3 over a mid-size feature map, a strided downsampler, a depthwise
// 3x3 (the MobileNet-style op), and the small deep-layer maps where the
// padded border is most of the output (12 of 16 pixels on 4x4, all of
// them on 2x2); and the speech models' second feature-extractor layer,
// a 1x5 stride-4 kernel over a batch of 8 waveforms 64 samples long.
var convBenchCases = []struct {
	name                                          string
	inC, outC, kh, kw, stride, padH, padW, groups int
	n, h, w                                       int
}{
	{"3x3pad1_16c16x16", 16, 16, 3, 3, 1, 1, 1, 1, 4, 16, 16},
	{"3x3s2_32c32x32", 32, 32, 3, 3, 2, 1, 1, 1, 1, 32, 32},
	{"dw3x3_64c16x16", 64, 64, 3, 3, 1, 1, 1, 64, 1, 16, 16},
	{"3x3pad1_64c4x4", 64, 64, 3, 3, 1, 1, 1, 1, 8, 4, 4},
	{"3x3pad1_32c2x2", 32, 32, 3, 3, 1, 1, 1, 1, 8, 2, 2},
	{"1x5s4_8to32c1x64", 8, 32, 1, 5, 4, 0, 2, 1, 8, 1, 64},
}

func benchConv(b *testing.B, idx int, direct bool) {
	tc := convBenchCases[idx]
	c := newRectConv(tc.inC, tc.outC, tc.kh, tc.kw, tc.stride, tc.padH, tc.padW, tc.groups)
	rng := tensor.NewRNG(0xC0B)
	c.W.FillNormal(rng, 0, 0.1)
	x := tensor.New(tc.n, tc.inC, tc.h, tc.w)
	x.FillNormal(rng, 0, 1)
	oh, ow := c.OutSize(tc.h, tc.w)
	b.SetBytes(int64((x.Len() + c.W.Len() + tc.n*tc.outC*oh*ow) * 4))
	// The im2col path runs under one arena, reset each iteration and
	// warmed once before the timer, as a sweep cell's plan runs it.
	var a tensor.Arena
	if !direct {
		c.Forward(&a, x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if direct {
			y := tensor.New(tc.n, tc.outC, oh, ow)
			c.forwardDirect(y, x, tc.n, tc.h, tc.w, oh, ow)
		} else {
			a.Reset()
			_ = c.Forward(&a, x)
		}
	}
}

// BenchmarkConv2dIm2col measures the im2col+GEMM forward path.
func BenchmarkConv2dIm2col(b *testing.B) {
	for i := range convBenchCases {
		b.Run(convBenchCases[i].name, func(b *testing.B) { benchConv(b, i, false) })
	}
}

// BenchmarkConv2dDirect is the pre-kernel 7-deep direct loop over the
// same shapes — the baseline for the im2col speedup.
func BenchmarkConv2dDirect(b *testing.B) {
	for i := range convBenchCases {
		b.Run(convBenchCases[i].name, func(b *testing.B) { benchConv(b, i, true) })
	}
}

// BenchmarkBatchMatMul measures the attention-shaped batched matmuls
// (QKᵀ and PV) through the blocked kernels, under one arena reset each
// iteration and warmed once before the timer, as a sweep cell runs
// them.
func BenchmarkBatchMatMul(b *testing.B) {
	for _, tc := range []struct {
		name        string
		b1, m, k, n int
		transB      bool
	}{
		{"qkT_16x32x16x32", 16, 32, 16, 32, true},
		{"pv_16x32x32x16", 16, 32, 32, 16, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := tensor.NewRNG(0xBA7)
			a := tensor.New(tc.b1, tc.m, tc.k)
			var bm *tensor.Tensor
			if tc.transB {
				bm = tensor.New(tc.b1, tc.n, tc.k)
			} else {
				bm = tensor.New(tc.b1, tc.k, tc.n)
			}
			a.FillNormal(rng, 0, 1)
			bm.FillNormal(rng, 0, 1)
			b.SetBytes(int64((a.Len() + bm.Len() + tc.b1*tc.m*tc.n) * 4))
			var ar tensor.Arena
			op := &BatchMatMulOp{TransposeB: tc.transB}
			op.Apply(&ar, a, bm)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ar.Reset()
				_ = op.Apply(&ar, a, bm)
			}
		})
	}
}
