package fp8

import (
	"math"
	"testing"

	"fp8quant/internal/tensor"
)

// TestQuantizeSliceLengths pins QuantizeSlice to the per-element
// oracle at every length up to 13, with special values (NaN, ±Inf, ±0,
// subnormals, overflow) planted in every position, so each element
// takes the loop's inline normal-range body or the Quantize call in
// every neighbourhood.
func TestQuantizeSliceLengths(t *testing.T) {
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)),
		float32(E4M3.MinSubnormal()), -float32(E4M3.MinSubnormal() / 2),
		1e30, -1e30, 1.5, -0.375,
	}
	for _, f := range testFormats {
		c := f.Codec()
		for n := 0; n <= 13; n++ {
			for rot := 0; rot < len(specials); rot++ {
				src := make([]float32, n)
				want := make([]float32, n)
				for i := range src {
					src[i] = specials[(i+rot)%len(specials)]
					want[i] = oracle(f, src[i])
				}
				checkSlice(t, "QuantizeSlice", f, src, c.QuantizeSlice(make([]float32, n), src), want)
			}
		}
	}
}

// TestRNEShiftBranchless exhaustively pins the branch-free rneShift to
// the literal round-to-nearest-even definition for every shift and a
// dense significand sweep (full 25-bit coverage for small shifts).
func TestRNEShiftBranchless(t *testing.T) {
	ref := func(sig uint32, s uint) uint32 {
		q := sig >> s
		rem := sig & (1<<s - 1)
		half := uint32(1) << (s - 1)
		if rem > half || (rem == half && q&1 == 1) {
			q++
		}
		return q
	}
	for s := uint(1); s <= 31; s++ {
		step := uint32(1)
		if s > 12 {
			step = 97 // prime stride keeps all residues visited
		}
		for sig := uint32(0); sig < 1<<25; sig += step {
			if got, want := rneShift(sig, s), ref(sig, s); got != want {
				t.Fatalf("rneShift(%d, %d) = %d, want %d", sig, s, got, want)
			}
		}
	}
}

// batchBenchSrc is a 1M-element mixed-magnitude tensor for the batch
// encode benchmarks.
func batchBenchSrc() []float32 {
	src := make([]float32, 1<<20)
	r := tensor.NewRNG(0xBA7C)
	for i := range src {
		src[i] = float32(r.Norm() * 8)
	}
	return src
}

// BenchmarkBatchEncode measures the QuantizeSlice fake-quant loop.
func BenchmarkBatchEncode(b *testing.B) {
	src := batchBenchSrc()
	dst := make([]float32, len(src))
	c := E4M3.Codec()
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.QuantizeSlice(dst, src)
	}
}

// BenchmarkBatchEncodeScalar is the per-element baseline: one
// (non-inlined) Quantize call per element.
func BenchmarkBatchEncodeScalar(b *testing.B) {
	src := batchBenchSrc()
	dst := make([]float32, len(src))
	c := E4M3.Codec()
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range src {
			dst[j] = c.Quantize(v)
		}
	}
}
