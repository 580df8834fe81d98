// Native fuzz targets pinning the fast codec to the scalar oracle on
// arbitrary inputs. The deterministic suites in fast_test.go sweep
// dense structured ranges; fuzzing explores the float32 space (and the
// scale/rescale space of the fused kernel) adversarially, so any
// rounding divergence between the bit-level encoder and the float64
// reference path becomes a crash with a minimized reproducer. Run
// continuously with:
//
//	go test -run=NONE -fuzz=FuzzEncodeRoundTrip ./internal/fp8
//	go test -run=NONE -fuzz=FuzzQuantizeScaledSlice ./internal/fp8
//
// CI runs each for a short bounded pass; the checked-in corpora under
// testdata/fuzz seed both with the historically nasty inputs
// (subnormals, overflow boundary, NaN payloads, extended-format max).

package fp8

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzFormats are the codec-eligible formats both fuzz targets pin:
// the three paper formats plus generic and bias-shifted variants
// (mirrors testFormats in fast_test.go without needing a *testing.T).
var fuzzFormats = func() []Format {
	fs := []Format{E5M2, E4M3, E3M4}
	if g, err := New(2, 5, false); err == nil {
		fs = append(fs, g)
	}
	if g, err := New(5, 2, false); err == nil {
		fs = append(fs, g)
	}
	return append(fs, E4M3.WithBias(11), E3M4.WithBias(1))
}()

// interestingBits are seed inputs for the encode fuzzer: zeros, the
// subnormal boundary, the overflow boundary of each format family,
// infinities and NaN payloads.
var interestingBits = []uint32{
	0x00000000, // +0
	0x80000000, // -0
	0x00000001, // smallest float32 subnormal
	0x00800000, // smallest float32 normal
	0x3F800000, // 1.0
	0x3FC00000, // 1.5 (tie cases)
	0x43700000, // 240 (E4M3 max)
	0x43700001, // just past E4M3 max
	0x477FE000, // 65504 (E5M2-ish max)
	0x7F7FFFFF, // float32 max
	0x7F800000, // +Inf
	0xFF800000, // -Inf
	0x7FC00000, // quiet NaN
	0x7F800001, // signalling NaN payload
	0x38D1B717, // 1e-4 (deep subnormal for most formats)
	0xB8D1B717, // -1e-4
}

// FuzzEncodeRoundTrip checks, for arbitrary float32 bit patterns, that
// the bit-level encoder matches the scalar float64 oracle code-exactly
// and that quantization is idempotent (a representable value must be a
// fixed point of Quantize).
func FuzzEncodeRoundTrip(f *testing.F) {
	for _, bits := range interestingBits {
		f.Add(bits)
	}
	f.Fuzz(func(t *testing.T, bits uint32) {
		x := math.Float32frombits(bits)
		for _, format := range fuzzFormats {
			c := format.Codec()
			got, want := c.Encode(x), format.Encode(float64(x))
			if got != want {
				t.Fatalf("%s: Encode(%v = %#08x) fast %#02x != ref %#02x",
					format, x, bits, got, want)
			}
			// Decode agreement on the produced code.
			if d, ref := c.dec[got], format.Decode(got); !sameFloat32(d, float32(ref)) {
				t.Fatalf("%s: Decode(%#02x) fast %v != ref %v", format, got, d, ref)
			}
			// Idempotence: quantizing a representable value is identity.
			q := c.Quantize(x)
			if qq := c.Quantize(q); !sameFloat32(qq, q) {
				t.Fatalf("%s: Quantize not idempotent at %v: %v -> %v", format, x, q, qq)
			}
		}
	})
}

// FuzzQuantizeScaledSlice checks the fused scale+quantize+rescale
// kernel stays bit-identical to the unfused scalar expression
// float32(Quantize(float64(v*scale)))*inv for arbitrary inputs, scales
// and rescales — on both the short path and the table-driven path
// (the input is tiled past rescaleMin to force the fused loop).
func FuzzQuantizeScaledSlice(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 68}, uint32(0x3F800000), uint32(0x3F800000))
	f.Add([]byte{1, 0, 0, 0, 255, 255, 127, 127}, uint32(0x42C80000), uint32(0x3C23D70A))
	f.Add([]byte{0, 0, 192, 255}, uint32(0x7F800000), uint32(0x00000000))
	f.Add([]byte{0, 0, 112, 67, 23, 183, 209, 56}, uint32(0x3F000000), uint32(0x40000000))
	f.Fuzz(func(t *testing.T, data []byte, scaleBits, invBits uint32) {
		n := len(data) / 4
		if n == 0 {
			return
		}
		src := make([]float32, n)
		for i := 0; i < n; i++ {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
		}
		scale := math.Float32frombits(scaleBits)
		inv := math.Float32frombits(invBits)
		// Tile the fuzz input past rescaleMin so the fused table path
		// runs too, not just the short loop.
		long := make([]float32, rescaleMin+n)
		for i := range long {
			long[i] = src[i%n]
		}
		for _, format := range fuzzFormats {
			c := format.Codec()
			for _, in := range [][]float32{src, long} {
				got := c.QuantizeScaledSlice(make([]float32, len(in)), in, scale, inv)
				for i, v := range in {
					want := float32(format.Quantize(float64(v*scale))) * inv
					if !sameFloat32(got[i], want) {
						t.Fatalf("%s: QuantizeScaledSlice[%d] (v=%v scale=%v inv=%v, len=%d) = %v, want %v",
							format, i, v, scale, inv, len(in), got[i], want)
					}
				}
			}
		}
	})
}
