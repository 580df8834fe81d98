package fp8

import (
	"math"
	"testing"

	"fp8quant/internal/tensor"
)

// testFormats are the codec-eligible formats the equivalence suite and
// both fuzz targets pin: the three paper formats plus generic and
// bias-shifted variants.
var testFormats = func() []Format {
	fs := []Format{E5M2, E4M3, E3M4}
	if g, err := New(2, 5, false); err == nil {
		fs = append(fs, g)
	}
	if g, err := New(5, 2, false); err == nil {
		fs = append(fs, g) // E5M2 grid with extended specials
	}
	return append(fs, E4M3.WithBias(11), E3M4.WithBias(1))
}()

// oracle is the scalar float64 reference Codec.Quantize must equal bit
// for bit, NaN bits included.
func oracle(f Format, x float32) float32 { return float32(f.Quantize(float64(x))) }

// checkQuantize asserts fast == oracle for one input. It is called for
// millions of inputs, so it skips t.Helper (a stack walk per call); the
// message names the format and the input instead of the caller.
func checkQuantize(t *testing.T, f Format, c *Codec, x float32) {
	got, want := c.Quantize(x), oracle(f, x)
	if math.Float32bits(got) != math.Float32bits(want) {
		t.Fatalf("%s: Quantize(%v = %#08x) fast %v (%#08x) != ref %v (%#08x)",
			f, x, math.Float32bits(x), got, math.Float32bits(got), want, math.Float32bits(want))
	}
}

// checkSlice asserts got[i] and want[i] have the same bits.
func checkSlice(t *testing.T, what string, f Format, src, got, want []float32) {
	t.Helper()
	for i := range src {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s %s n=%d: [%d]=%v (in %v) != %v", f, what, len(src), i, got[i], src[i], want[i])
		}
	}
}

// TestQuantizeMatchesOracle compares Quantize and QuantizeSlice with
// the oracle on every oracleStride-th float32 bit pattern (every
// pattern under the exhaustive build tag: `make exhaustive`).
func TestQuantizeMatchesOracle(t *testing.T) {
	for _, f := range testFormats {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			c := f.Codec()
			var dec [256]uint32 // float32(f.Decode(code)) bits, memoized
			for code := range dec {
				dec[code] = math.Float32bits(float32(f.Decode(uint8(code))))
			}
			src := make([]float32, 0, 4096)
			dst := make([]float32, cap(src))
			for b := uint64(0); b < 1<<32; b += oracleStride {
				src = append(src, math.Float32frombits(uint32(b)))
				if len(src) < cap(src) && b+oracleStride < 1<<32 {
					continue
				}
				c.QuantizeSlice(dst, src)
				for i, x := range src {
					want := dec[f.Encode(float64(x))]
					if math.Float32bits(c.Quantize(x)) != want {
						checkQuantize(t, f, c, x) // reports the mismatch
					}
					if got := math.Float32bits(dst[i]); got != want {
						t.Fatalf("%s: QuantizeSlice(%v = %#08x) = %#08x, want %#08x",
							f, x, math.Float32bits(x), got, want)
					}
				}
				src = src[:0]
			}
		})
	}
}

// TestEncodeFastSpecials covers the special values of every format:
// zeros, infinities, NaN payloads, ±max, the overflow midpoints, and
// the subnormal boundaries.
func TestEncodeFastSpecials(t *testing.T) {
	for _, f := range testFormats {
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
			checkQuantize(t, f, c, float32(v))
			checkQuantize(t, f, c, -float32(v))
		}
		for _, nan := range []float32{
			float32(math.NaN()),
			math.Float32frombits(0x7FC00001),
			math.Float32frombits(0xFF800001), // negative signalling payload
		} {
			checkQuantize(t, f, c, nan)
		}
	}
}

// TestEncodeFastRoundTrip checks every one of the 256 codes: its value
// must be exact in float32 (the bit map rounds on float32's grid) and a
// fixed point of Quantize, and NaN codes must quantize to NaN.
func TestEncodeFastRoundTrip(t *testing.T) {
	for _, f := range testFormats {
		c := f.Codec()
		for b := 0; b < 256; b++ {
			code := uint8(b)
			ref := f.Decode(code)
			v := float32(ref)
			got := c.Quantize(v)
			switch {
			case f.IsNaN(code):
				if !math.IsNaN(float64(got)) {
					t.Errorf("%s: NaN code %#02x quantized to %v", f, code, got)
				}
			case float64(v) != ref:
				t.Errorf("%s: Decode(%#02x) loses precision in float32: %v vs %v", f, code, v, ref)
			case math.Float32bits(got) != math.Float32bits(v):
				t.Errorf("%s: code %#02x (%v) quantized to %v", f, code, v, got)
			}
			checkQuantize(t, f, c, v)
		}
	}
}

// TestEncodeFastDenseSweep compares Quantize with the oracle over a
// dense structured float32 sweep: every float32 exponent (subnormals
// included), all 512 top-mantissa patterns, and boundary low bits that
// decide round-to-nearest-even ties.
func TestEncodeFastDenseSweep(t *testing.T) {
	lowBits := []uint32{0x0000, 0x0001, 0x1FFF, 0x2000, 0x2001, 0x3FFF}
	for _, f := range testFormats {
		c := f.Codec()
		for e32 := uint32(0); e32 <= 254; e32++ {
			for hi := uint32(0); hi < 512; hi++ {
				for _, lo := range lowBits {
					bits := e32<<23 | hi<<14 | lo
					checkQuantize(t, f, c, math.Float32frombits(bits))
					checkQuantize(t, f, c, math.Float32frombits(bits|0x80000000))
				}
			}
		}
	}
}

// TestEncodeFastRandom fuzzes Quantize with uniform random bit patterns
// (covering NaN payloads and both infinities by construction).
func TestEncodeFastRandom(t *testing.T) {
	r := tensor.NewRNG(0xFA57)
	for _, f := range testFormats {
		c := f.Codec()
		for i := 0; i < 200000; i++ {
			bits := uint32(r.Intn(1<<16))<<16 | uint32(r.Intn(1<<16))
			checkQuantize(t, f, c, math.Float32frombits(bits))
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

// TestQuantizeSliceMatchesRef pins QuantizeSlice to the oracle bit for
// bit.
func TestQuantizeSliceMatchesRef(t *testing.T) {
	for _, f := range testFormats {
		src := mixedTestSlice(100000, f)
		want := make([]float32, len(src))
		for i, v := range src {
			want[i] = oracle(f, v)
		}
		checkSlice(t, "QuantizeSlice", f, src, f.Codec().QuantizeSlice(make([]float32, len(src)), src), want)
	}
}

// TestQuantizeScaledSliceMatchesUnfused pins the scaled kernel to the
// per-element oracle oracle(v*scale)*inv bit for bit, across lengths,
// every test format, and in-place aliasing.
func TestQuantizeScaledSliceMatchesUnfused(t *testing.T) {
	for _, f := range testFormats {
		c := f.Codec()
		scale := float32(f.MaxValue() / 3.7)
		inv := 1 / scale
		for _, n := range []int{0, 1, 8, 255, 256, 259, 4096} {
			src := mixedTestSlice(max(n, 8), f)[:n]
			want := make([]float32, n)
			for i, v := range src {
				want[i] = oracle(f, v*scale) * inv
			}
			checkSlice(t, "scaled", f, src, c.QuantizeScaledSlice(make([]float32, n), src, scale, inv), want)
			inPlace := append([]float32(nil), src...)
			checkSlice(t, "in-place scaled", f, src, c.QuantizeScaledSlice(inPlace, inPlace, scale, inv), want)
		}
	}
}

// The fused-vs-unfused pair compares QuantizeScaledSlice, whose loop
// inlines the normal-range rounding, with a per-element Quantize call
// on a static-fake-quant-sized activation slice.
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
