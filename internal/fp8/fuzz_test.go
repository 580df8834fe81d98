// Native fuzz targets pinning the fast codec to the scalar oracle on
// arbitrary inputs. The deterministic suites in fast_test.go sweep
// dense structured ranges; fuzzing explores the float32 space (and the
// scale/rescale space of the scaled kernel) adversarially, so any
// rounding divergence between the bit map and the float64 reference
// path becomes a crash with a minimized reproducer. Run
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
// Quantize matches the scalar float64 oracle bit for bit and that it is
// idempotent (a representable value must be a fixed point).
func FuzzEncodeRoundTrip(f *testing.F) {
	for _, bits := range interestingBits {
		f.Add(bits)
	}
	f.Fuzz(func(t *testing.T, bits uint32) {
		x := math.Float32frombits(bits)
		for _, format := range testFormats {
			c := format.Codec()
			checkQuantize(t, format, c, x)
			q := c.Quantize(x)
			if qq := c.Quantize(q); math.Float32bits(qq) != math.Float32bits(q) {
				t.Fatalf("%s: Quantize not idempotent at %v: %v -> %v", format, x, q, qq)
			}
		}
	})
}

// FuzzQuantizeScaledSlice checks the scaled kernel stays bit-identical
// to the per-element oracle oracle(v*scale)*inv for arbitrary inputs,
// scales and rescales.
func FuzzQuantizeScaledSlice(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 68}, uint32(0x3F800000), uint32(0x3F800000))
	f.Add([]byte{1, 0, 0, 0, 255, 255, 127, 127}, uint32(0x42C80000), uint32(0x3C23D70A))
	f.Add([]byte{0, 0, 192, 255}, uint32(0x7F800000), uint32(0x00000000))
	f.Add([]byte{0, 0, 112, 67, 23, 183, 209, 56}, uint32(0x3F000000), uint32(0x40000000))
	f.Fuzz(func(t *testing.T, data []byte, scaleBits, invBits uint32) {
		src := make([]float32, len(data)/4)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
		}
		scale := math.Float32frombits(scaleBits)
		inv := math.Float32frombits(invBits)
		for _, format := range testFormats {
			want := make([]float32, len(src))
			for i, v := range src {
				want[i] = oracle(format, v*scale) * inv
			}
			got := format.Codec().QuantizeScaledSlice(make([]float32, len(src)), src, scale, inv)
			checkSlice(t, "QuantizeScaledSlice", format, src, got, want)
		}
	})
}
