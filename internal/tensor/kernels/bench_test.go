package kernels

import (
	"fmt"
	"testing"

	"fp8quant/internal/tensor"
)

// matmulTNaive is a verbatim copy of the pre-kernel nn.matmulT loop
// (pre-sliced rows, single accumulator) — the honest baseline the
// speedup targets are measured against, not the slower plain-indexing
// oracle used by the correctness tests.
func matmulTNaive(y, x, w []float32, rows, in, out int) {
	for r := 0; r < rows; r++ {
		xr := x[r*in : (r+1)*in]
		yr := y[r*out : (r+1)*out]
		for o := 0; o < out; o++ {
			wo := w[o*in : (o+1)*in]
			var acc float32
			for k := range xr {
				acc += xr[k] * wo[k]
			}
			yr[o] = acc
		}
	}
}

// benchGemm measures one GEMM shape, reporting the streamed bytes
// (x + w read, y written) so MB/s lands in the bench-json trajectory.
// The panel is made once, outside the timed loop, so B/op counts the
// kernel's allocations and not the buffer a layer would carve.
func benchGemm(b *testing.B, rows, in, out int, naive bool) {
	// Normal-range data only: fillMixed's subnormal-scale values would
	// measure the CPU's denormal microcode penalty, not the kernel.
	rng := tensor.NewRNG(0xBEB)
	x := make([]float32, rows*in)
	w := make([]float32, out*in)
	y := make([]float32, rows*out)
	panel := make([]float32, PanelFloats(in, out))
	for i := range x {
		x[i] = float32(rng.Norm())
	}
	for i := range w {
		w[i] = float32(rng.Norm() * 0.1)
	}
	b.SetBytes(int64((rows*in + out*in + rows*out) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive {
			matmulTNaive(y, x, w, rows, in, out)
		} else {
			gemmPacked(PackTInto, panel, y, x, w, rows, in, out, Opt{})
		}
	}
}

// BenchmarkMatmulT is the blocked kernel over the shapes that dominate
// the model zoo (Linear layers and attention projections).
func BenchmarkMatmulT(b *testing.B) {
	for _, s := range []struct{ rows, in, out int }{
		{16, 256, 256},
		{64, 256, 256},
		{128, 512, 512},
	} {
		b.Run(fmt.Sprintf("%dx%dx%d", s.rows, s.in, s.out), func(b *testing.B) {
			benchGemm(b, s.rows, s.in, s.out, false)
		})
	}
}

// benchMatmulVariant runs the BenchmarkMatmulT shape set with the
// dispatcher pinned to one variant, so a single session records
// directly comparable AVX2-vs-SSE rows in BENCH_kernels.json.
func benchMatmulVariant(b *testing.B, v Variant) {
	prev := Active()
	if err := ForceVariant(v); err != nil {
		b.Skip(err)
	}
	defer func() { _ = ForceVariant(prev) }()
	for _, s := range []struct{ rows, in, out int }{
		{16, 256, 256},
		{64, 256, 256},
		{128, 512, 512},
	} {
		b.Run(fmt.Sprintf("%dx%dx%d", s.rows, s.in, s.out), func(b *testing.B) {
			benchGemm(b, s.rows, s.in, s.out, false)
		})
	}
}

// BenchmarkMatmulTSSE pins the sse tier (amd64 fallback).
func BenchmarkMatmulTSSE(b *testing.B) { benchMatmulVariant(b, VariantSSE) }

// BenchmarkMatmulTAVX2 pins the avx2 tier; skipped on hosts without
// AVX2+FMA.
func BenchmarkMatmulTAVX2(b *testing.B) { benchMatmulVariant(b, VariantAVX2) }

// BenchmarkMatmulTNaive is the pre-kernel scalar loop over the same
// shapes — the baseline the ≥3x acceptance target is measured against.
func BenchmarkMatmulTNaive(b *testing.B) {
	for _, s := range []struct{ rows, in, out int }{
		{16, 256, 256},
		{64, 256, 256},
		{128, 512, 512},
	} {
		b.Run(fmt.Sprintf("%dx%dx%d", s.rows, s.in, s.out), func(b *testing.B) {
			benchGemm(b, s.rows, s.in, s.out, true)
		})
	}
}
