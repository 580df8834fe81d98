package fp8

import (
	"math"
	"testing"

	"fp8quant/internal/tensor"
)

// testFormats are the codec-eligible formats the equivalence suite
// pins: the three paper formats plus generic and bias-shifted variants.
func testFormats(t *testing.T) []Format {
	t.Helper()
	fs := []Format{E5M2, E4M3, E3M4}
	if g, err := New(2, 5, false); err == nil {
		fs = append(fs, g)
	}
	if g, err := New(5, 2, false); err == nil {
		fs = append(fs, g) // E5M2 grid with extended specials
	}
	fs = append(fs, E4M3.WithBias(11), E3M4.WithBias(1))
	return fs
}

// sameFloat32 compares bit-for-bit modulo NaN payloads.
func sameFloat32(a, b float32) bool {
	if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
		return math.IsNaN(float64(a)) && math.IsNaN(float64(b))
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// TestDecodeLUTExhaustive checks all 256 codes of every format: the
// codec table must match the reference Decode exactly (every
// representable value fits float32, so float32 storage loses nothing).
func TestDecodeLUTExhaustive(t *testing.T) {
	for _, f := range testFormats(t) {
		c := f.Codec()
		for b := 0; b < 256; b++ {
			got := c.dec[uint8(b)]
			want := f.Decode(uint8(b))
			if !sameFloat32(got, float32(want)) {
				t.Errorf("%s: Decode(%#02x) LUT %v != ref %v", f, b, got, want)
			}
			if !math.IsNaN(want) && float64(got) != want {
				t.Errorf("%s: Decode(%#02x) loses precision in float32: %v vs %v", f, b, got, want)
			}
		}
	}
}

// checkEncode asserts fast == reference for one input.
func checkEncode(t *testing.T, f Format, c *Codec, x float32) {
	t.Helper()
	got, want := c.Encode(x), f.Encode(float64(x))
	if got != want {
		t.Fatalf("%s: Encode(%v = %#08x) fast %#02x != ref %#02x",
			f, x, math.Float32bits(x), got, want)
	}
}

// TestEncodeFastSpecials covers the special values of every format:
// zeros, infinities, NaN payloads, ±max, the overflow midpoints, and
// the subnormal boundaries.
func TestEncodeFastSpecials(t *testing.T) {
	for _, f := range testFormats(t) {
		c := f.Codec()
		max := f.MaxValue()
		ulp := math.Ldexp(1, f.maxRawExp()-f.Bias-int(f.ManBits))
		specials := []float64{
			0, math.Copysign(0, -1),
			math.Inf(1), math.Inf(-1),
			max, -max, max + ulp/4, max + ulp/2, max + ulp, 2 * max,
			f.MinNormal(), f.MinNormal() * 0.999999,
			f.MinSubnormal(), f.MinSubnormal() / 2, f.MinSubnormal() / 2.000001,
			f.MinSubnormal() * 1.5, f.MinSubnormal() * 2.5,
			math.MaxFloat32, -math.MaxFloat32,
			math.SmallestNonzeroFloat32, // float32 subnormal
			5.877471754111438e-39,       // float32 subnormal with high bits
		}
		for _, v := range specials {
			checkEncode(t, f, c, float32(v))
			checkEncode(t, f, c, -float32(v))
		}
		for _, nan := range []float32{
			float32(math.NaN()),
			math.Float32frombits(0x7FC00001),
			math.Float32frombits(0xFF800001), // negative signalling payload
		} {
			checkEncode(t, f, c, nan)
		}
	}
}

// TestEncodeFastRoundTrip checks that every finite code survives an
// encode(decode(code)) round trip and that NaN codes stay NaN.
func TestEncodeFastRoundTrip(t *testing.T) {
	for _, f := range testFormats(t) {
		c := f.Codec()
		for b := 0; b < 256; b++ {
			code := uint8(b)
			v := c.dec[code]
			got := c.Encode(v)
			switch {
			case f.IsNaN(code):
				if !f.IsNaN(got) {
					t.Errorf("%s: NaN code %#02x re-encoded to %#02x", f, code, got)
				}
			default:
				if got != code {
					t.Errorf("%s: code %#02x (%v) round-tripped to %#02x", f, code, v, got)
				}
			}
		}
	}
}

// TestEncodeFastDenseSweep compares the fast encoder against the
// reference over a dense structured float32 sweep: every float32
// exponent (subnormals included), all 512 top-mantissa patterns, and
// boundary low bits that decide round-to-nearest-even ties.
func TestEncodeFastDenseSweep(t *testing.T) {
	lowBits := []uint32{0x0000, 0x0001, 0x1FFF, 0x2000, 0x2001, 0x3FFF}
	for _, f := range testFormats(t) {
		c := f.Codec()
		for e32 := uint32(0); e32 <= 254; e32++ {
			for hi := uint32(0); hi < 512; hi++ {
				for _, lo := range lowBits {
					mant := hi<<14 | lo
					bits := e32<<23 | mant
					x := math.Float32frombits(bits)
					if got, want := c.Encode(x), f.Encode(float64(x)); got != want {
						t.Fatalf("%s: Encode(%v = %#08x) fast %#02x != ref %#02x",
							f, x, bits, got, want)
					}
					xn := math.Float32frombits(bits | 0x80000000)
					if got, want := c.Encode(xn), f.Encode(float64(xn)); got != want {
						t.Fatalf("%s: Encode(%v = %#08x) fast %#02x != ref %#02x",
							f, xn, bits|0x80000000, got, want)
					}
				}
			}
		}
	}
}

// TestEncodeFastRandom fuzzes the encoder with uniform random bit
// patterns (covering NaN payloads and both infinities by construction).
func TestEncodeFastRandom(t *testing.T) {
	r := tensor.NewRNG(0xFA57)
	for _, f := range testFormats(t) {
		c := f.Codec()
		for i := 0; i < 200000; i++ {
			bits := uint32(r.Intn(1<<16))<<16 | uint32(r.Intn(1<<16))
			checkEncode(t, f, c, math.Float32frombits(bits))
		}
	}
}

// mixedTestSlice builds a slice exercising every encoder branch:
// normals across the full scale, subnormals, zeros, specials.
func mixedTestSlice(n int, f Format) []float32 {
	r := tensor.NewRNG(0x51C3)
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(r.Norm() * math.Ldexp(1, r.Intn(40)-20))
	}
	src[0] = float32(math.NaN())
	src[1] = float32(math.Inf(1))
	src[2] = float32(math.Inf(-1))
	src[3] = 0
	src[4] = float32(math.Copysign(0, -1))
	src[5] = float32(f.MaxValue())
	src[6] = -float32(f.MaxValue()) * 4
	src[7] = float32(f.MinSubnormal() / 2)
	return src
}

// QuantizeSliceRef is the scalar float64 reference path, the
// bit-exactness oracle for the fast codec.
func (f Format) QuantizeSliceRef(dst, src []float32) []float32 {
	for i, v := range src {
		dst[i] = float32(f.Quantize(float64(v)))
	}
	return dst
}

// TestQuantizeSliceMatchesRef pins the fast QuantizeSlice to the scalar
// reference path bit-for-bit.
func TestQuantizeSliceMatchesRef(t *testing.T) {
	for _, f := range testFormats(t) {
		src := mixedTestSlice(100000, f)
		fast := f.Codec().QuantizeSlice(make([]float32, len(src)), src)
		ref := f.QuantizeSliceRef(make([]float32, len(src)), src)
		for i := range src {
			if !sameFloat32(fast[i], ref[i]) {
				t.Fatalf("%s: QuantizeSlice[%d]=%v (in %v) != ref %v", f, i, fast[i], src[i], ref[i])
			}
		}
	}
}

// TestQuantizeSliceParallelMatchesSerial checks serial/parallel
// equality across sizes spanning the inline threshold, including
// lengths that do not divide evenly into chunks, and in-place aliasing.
func TestQuantizeSliceParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{0, 1, 100, quantGrain - 1, quantGrain + 1, 1<<20 + 3} {
		src := mixedTestSlice(max(n, 8), E4M3)[:n]
		serial := E4M3.Codec().QuantizeSlice(make([]float32, n), src)
		par := E4M3.QuantizeSliceParallel(make([]float32, n), src)
		for i := range src {
			if !sameFloat32(serial[i], par[i]) {
				t.Fatalf("n=%d: parallel[%d]=%v != serial %v", n, i, par[i], serial[i])
			}
		}
		// In-place (dst aliasing src) must work too.
		inPlace := append([]float32(nil), src...)
		E4M3.QuantizeSliceParallel(inPlace, inPlace)
		for i := range inPlace {
			if !sameFloat32(inPlace[i], serial[i]) {
				t.Fatalf("n=%d: in-place parallel[%d]=%v != serial %v", n, i, inPlace[i], serial[i])
			}
		}
	}
}

// TestQuantizeScaledSliceMatchesUnfused pins the fused
// scale→quantize→rescale kernel to the unfused per-element expression
// Quantize(v*scale)*inv bit-for-bit, across sizes on both sides of the
// rescale-table threshold, every test format (slow fallbacks included),
// and in-place aliasing.
func TestQuantizeScaledSliceMatchesUnfused(t *testing.T) {
	for _, f := range testFormats(t) {
		c := f.Codec()
		threshold := 3.7
		scale := float32(f.MaxValue() / threshold)
		inv := 1 / scale
		for _, n := range []int{0, 1, 8, rescaleMin - 1, rescaleMin, rescaleMin + 3, 4096} {
			src := mixedTestSlice(max(n, 8), f)[:n]
			want := make([]float32, n)
			for i, v := range src {
				want[i] = c.Quantize(v*scale) * inv
			}
			got := c.QuantizeScaledSlice(make([]float32, n), src, scale, inv)
			for i := range src {
				if !sameFloat32(got[i], want[i]) {
					t.Fatalf("%s n=%d: fused[%d]=%v (in %v) != unfused %v",
						f, n, i, got[i], src[i], want[i])
				}
			}
			inPlace := append([]float32(nil), src...)
			c.QuantizeScaledSlice(inPlace, inPlace, scale, inv)
			for i := range inPlace {
				if !sameFloat32(inPlace[i], want[i]) {
					t.Fatalf("%s n=%d: in-place fused[%d]=%v != unfused %v",
						f, n, i, inPlace[i], want[i])
				}
			}
		}
	}
}

// The fused-vs-unfused pair quantifies the QuantizeScaledSlice win on a
// static-fake-quant-sized activation slice (run with -bench to compare;
// the fused path folds the rescale into the decode table).
func benchScaledSrc() ([]float32, []float32, float32, float32) {
	src := make([]float32, 1<<14)
	r := tensor.NewRNG(0xF05E)
	for i := range src {
		src[i] = float32(r.Norm() * 2)
	}
	scale := float32(E4M3.MaxValue() / 4.0)
	return src, make([]float32, len(src)), scale, 1 / scale
}

func BenchmarkQuantizeScaledSliceFused(b *testing.B) {
	src, dst, scale, inv := benchScaledSrc()
	c := E4M3.Codec()
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.QuantizeScaledSlice(dst, src, scale, inv)
	}
}

func BenchmarkQuantizeScaledSliceUnfused(b *testing.B) {
	src, dst, scale, inv := benchScaledSrc()
	c := E4M3.Codec()
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range src {
			dst[j] = c.Quantize(v*scale) * inv
		}
	}
}

// TestCodecCached checks the per-format cache returns one instance.
func TestCodecCached(t *testing.T) {
	if E4M3.Codec() != E4M3.Codec() {
		t.Error("Codec() must be cached per format")
	}
	if E4M3.Codec() == E3M4.Codec() {
		t.Error("distinct formats must have distinct codecs")
	}
	if E4M3.WithBias(11).Codec() == E4M3.Codec() {
		t.Error("bias-shifted format must not share the base codec")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
