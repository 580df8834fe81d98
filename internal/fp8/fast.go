// Fast codec: a precomputed 256-entry decode table plus a bit-level
// float32 encoder, bit-identical to the scalar reference Encode/Decode
// on every float32 input. Format.Encode/Decode (format.go) stay the
// reference oracle; the exhaustive equivalence tests in fast_test.go
// pin the two paths together.
package fp8

import (
	"math"
	"sync"

	"fp8quant/internal/tensor"
)

// quantGrain is the smallest per-worker chunk of QuantizeSliceParallel;
// below ~16K elements the goroutine handoff costs more than the encode.
const quantGrain = 1 << 14

// Codec holds the precomputed tables for one format. Obtain instances
// via Format.Codec(); they are cached per format and safe for
// concurrent use.
type Codec struct {
	format  Format
	dec     [256]float32
	manBits uint
	bias    int
	nan     uint8
	// overMag is the first magnitude (sign-stripped code value, before
	// clamping to 8 bits) that overflows the finite range; overCode is
	// what an overflowing encode emits (Inf for IEEE formats, ±max for
	// extended formats, which also covers a round up onto the extended
	// NaN pattern).
	overMag  uint32
	overCode uint8
	infCode  uint8
	// slow marks exotic formats (hand-built bias/width combinations
	// outside the 8-bit family) that fall back to the scalar encoder.
	slow bool
}

var codecCache sync.Map // Format -> *Codec

// Codec returns the cached fast codec for the format, building it on
// first use.
func (f Format) Codec() *Codec {
	if c, ok := codecCache.Load(f); ok {
		return c.(*Codec)
	}
	c, _ := codecCache.LoadOrStore(f, newCodec(f))
	return c.(*Codec)
}

func newCodec(f Format) *Codec {
	c := &Codec{format: f, manBits: f.ManBits, bias: f.Bias, nan: f.NaN()}
	for i := 0; i < 256; i++ {
		c.dec[i] = float32(f.Decode(uint8(i)))
	}
	if f.IEEE {
		c.overMag = uint32(f.expField()) << f.ManBits
		c.overCode = uint8(f.expField()) << f.ManBits
	} else {
		c.overMag = 0x7F // the extended NaN pattern and everything above
		c.overCode = f.maxCode()
	}
	c.infCode = c.overCode
	// The bit-level encoder assumes a normal float32 significand for
	// any value landing in the format's normal range, true whenever the
	// format's normal range sits inside float32's (bias <= 126). It
	// also relies on mantissa parity surviving the implicit-bit offset,
	// which needs at least one mantissa bit.
	c.slow = f.ExpBits+f.ManBits != 7 || f.ManBits < 1 || f.Bias > 126
	return c
}

// Format returns the format this codec encodes.
func (c *Codec) Format() Format { return c.format }

// Encode converts a float32 to the nearest representable 8-bit code
// using round-to-nearest-even, operating directly on the IEEE-754 bit
// pattern. It is bit-identical to Format.Encode(float64(x)).
func (c *Codec) Encode(x float32) uint8 {
	if c.slow {
		return c.format.Encode(float64(x))
	}
	bits := math.Float32bits(x)
	sign := uint8(bits >> 24 & 0x80)
	mag32 := bits & 0x7FFFFFFF
	if mag32 >= 0x7F800000 {
		if mag32 > 0x7F800000 {
			return c.nan
		}
		return sign | c.infCode
	}
	if mag32 == 0 {
		return sign // ±0
	}
	e := int(mag32>>23) - 127
	sig := mag32 & 0x7FFFFF
	if e == -127 {
		e = -126 // float32 subnormal: no implicit bit
	} else {
		sig |= 1 << 23
	}
	rawExp := e + c.bias
	m := uint(c.manBits)
	var mag uint32
	if rawExp >= 1 {
		// Normal target range. q covers [2^m, 2^(m+1)]; the additive
		// form folds a mantissa carry straight into the exponent field.
		q := rneShift(sig, 23-m)
		mag = uint32(rawExp-1)<<m + q
	} else {
		// Subnormal target range: round in units of 2^(1-bias-m). A
		// carry to 2^m lands exactly on the min-normal code.
		shift := 24 - int(m) - rawExp // rawExp <= 0, so shift >= 17
		if shift >= 32 {
			return sign // underflows to ±0
		}
		mag = rneShift(sig, uint(shift))
	}
	if mag >= c.overMag {
		return sign | c.overCode
	}
	return sign | uint8(mag)
}

// rneShift rounds sig right by s bits (1 <= s <= 31) to nearest, ties
// to even, branch-free: adding half-1 plus the pre-round quotient's
// LSB carries into the quotient exactly when rem > half, or rem == half
// with an odd quotient (the tie-to-even case). The data-dependent
// rounding branch this replaces mispredicted ~half the time and
// dominated the batch encode's per-element cost. sig < 2^25, so the
// addition cannot overflow uint32.
func rneShift(sig uint32, s uint) uint32 {
	half := uint32(1) << (s - 1)
	return (sig + half - 1 + ((sig >> s) & 1)) >> s
}

// Quantize rounds x to the nearest representable value
// (encode+decode in one step).
func (c *Codec) Quantize(x float32) float32 { return c.dec[c.Encode(x)] }

// QuantizeSlice applies Quantize element-wise, writing into dst (which
// may alias src). It returns dst. The hot path is the 4-lane batch
// kernel (quantBatch4) with the identity scale: v·1 encodes to the
// same code as v for every float32 (including specials), so the shared
// kernel stays bit-identical to the per-element Encode loop.
func (c *Codec) QuantizeSlice(dst, src []float32) []float32 {
	if c.slow {
		f := c.format
		for i, v := range src {
			dst[i] = float32(f.Quantize(float64(v)))
		}
		return dst
	}
	c.quantBatch4(dst, src, 1, &c.dec)
	return dst
}

// QuantizeSliceParallel is QuantizeSlice with the work fanned out in
// chunks over the shared worker pool. Small slices run inline; results
// are bit-identical to the serial path regardless of scheduling.
func (c *Codec) QuantizeSliceParallel(dst, src []float32) []float32 {
	tensor.ParallelFor(len(src), quantGrain, func(lo, hi int) {
		c.QuantizeSlice(dst[lo:hi], src[lo:hi])
	})
	return dst
}

// rescaleMin is the slice length above which QuantizeScaledSlice
// amortizes a 256-entry rescaled decode table; below it the table
// build costs more than the per-element multiply it saves.
const rescaleMin = 256

// QuantizeScaledSlice is the fused static fake-quant kernel: it
// computes dst[i] = Decode(Encode(src[i]*scale)) * inv in a single
// pass, writing into dst (which may alias src) and returning it. For
// slices past rescaleMin the rescale is folded into a stack-local
// decode table (tbl[j] = Decode(j)*inv) and the bit-level encoder is
// inlined into the loop, eliminating both the per-element multiply
// round trip and the per-element call. Results are bit-identical to
// the unfused Quantize(v*scale)*inv expression on every input (the
// fast_test equivalence suite pins the inlined encoder to Encode).
func (c *Codec) QuantizeScaledSlice(dst, src []float32, scale, inv float32) []float32 {
	if c.slow {
		f := c.format
		for i, v := range src {
			dst[i] = float32(f.Quantize(float64(v*scale))) * inv
		}
		return dst
	}
	if len(src) < rescaleMin {
		for i, v := range src {
			dst[i] = c.dec[c.Encode(v*scale)] * inv
		}
		return dst
	}
	var tbl [256]float32
	for j, d := range c.dec {
		tbl[j] = d * inv
	}
	c.quantBatch4(dst, src, scale, &tbl)
	return dst
}

// quantBatch4 is the batch fake-quant kernel shared by QuantizeSlice
// (scale 1, tbl = the plain decode table) and QuantizeScaledSlice
// (tbl = decode·inv): dst[i] = tbl[Encode(src[i]*scale)], four lanes
// per iteration. Each lane duplicates the Codec.Encode body verbatim
// (Go will not inline a function this size, and the call was the
// dominant per-element cost); the four encode chains are independent,
// so they pipeline where the single-lane loop serialized on one
// branchy chain. Bounds checks are hoisted by reslicing dst to
// len(src) and indexing both through the same induction variable.
// dst may alias src. Bit-identical to the per-element reference for
// every input, pinned by the fast_test equivalence suite.
func (c *Codec) quantBatch4(dst, src []float32, scale float32, tbl *[256]float32) {
	m := c.manBits
	bias := c.bias
	nanCode := c.nan
	overMag, overCode, infCode := c.overMag, c.overCode, c.infCode
	n := len(src)
	dst = dst[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		v0 := src[i] * scale
		v1 := src[i+1] * scale
		v2 := src[i+2] * scale
		v3 := src[i+3] * scale

		bits := math.Float32bits(v0)
		sign := uint8(bits >> 24 & 0x80)
		mag32 := bits & 0x7FFFFFFF
		var c0 uint8
		switch {
		case mag32 >= 0x7F800000:
			if mag32 > 0x7F800000 {
				c0 = nanCode
			} else {
				c0 = sign | infCode
			}
		case mag32 == 0:
			c0 = sign
		default:
			e := int(mag32>>23) - 127
			sig := mag32 & 0x7FFFFF
			if e == -127 {
				e = -126
			} else {
				sig |= 1 << 23
			}
			rawExp := e + bias
			var mag uint32
			if rawExp >= 1 {
				mag = uint32(rawExp-1)<<m + rneShift(sig, 23-m)
			} else if shift := 24 - int(m) - rawExp; shift >= 32 {
				mag = 0 // underflows to ±0
			} else {
				mag = rneShift(sig, uint(shift))
			}
			if mag >= overMag {
				c0 = sign | overCode
			} else {
				c0 = sign | uint8(mag)
			}
		}

		bits = math.Float32bits(v1)
		sign = uint8(bits >> 24 & 0x80)
		mag32 = bits & 0x7FFFFFFF
		var c1 uint8
		switch {
		case mag32 >= 0x7F800000:
			if mag32 > 0x7F800000 {
				c1 = nanCode
			} else {
				c1 = sign | infCode
			}
		case mag32 == 0:
			c1 = sign
		default:
			e := int(mag32>>23) - 127
			sig := mag32 & 0x7FFFFF
			if e == -127 {
				e = -126
			} else {
				sig |= 1 << 23
			}
			rawExp := e + bias
			var mag uint32
			if rawExp >= 1 {
				mag = uint32(rawExp-1)<<m + rneShift(sig, 23-m)
			} else if shift := 24 - int(m) - rawExp; shift >= 32 {
				mag = 0
			} else {
				mag = rneShift(sig, uint(shift))
			}
			if mag >= overMag {
				c1 = sign | overCode
			} else {
				c1 = sign | uint8(mag)
			}
		}

		bits = math.Float32bits(v2)
		sign = uint8(bits >> 24 & 0x80)
		mag32 = bits & 0x7FFFFFFF
		var c2 uint8
		switch {
		case mag32 >= 0x7F800000:
			if mag32 > 0x7F800000 {
				c2 = nanCode
			} else {
				c2 = sign | infCode
			}
		case mag32 == 0:
			c2 = sign
		default:
			e := int(mag32>>23) - 127
			sig := mag32 & 0x7FFFFF
			if e == -127 {
				e = -126
			} else {
				sig |= 1 << 23
			}
			rawExp := e + bias
			var mag uint32
			if rawExp >= 1 {
				mag = uint32(rawExp-1)<<m + rneShift(sig, 23-m)
			} else if shift := 24 - int(m) - rawExp; shift >= 32 {
				mag = 0
			} else {
				mag = rneShift(sig, uint(shift))
			}
			if mag >= overMag {
				c2 = sign | overCode
			} else {
				c2 = sign | uint8(mag)
			}
		}

		bits = math.Float32bits(v3)
		sign = uint8(bits >> 24 & 0x80)
		mag32 = bits & 0x7FFFFFFF
		var c3 uint8
		switch {
		case mag32 >= 0x7F800000:
			if mag32 > 0x7F800000 {
				c3 = nanCode
			} else {
				c3 = sign | infCode
			}
		case mag32 == 0:
			c3 = sign
		default:
			e := int(mag32>>23) - 127
			sig := mag32 & 0x7FFFFF
			if e == -127 {
				e = -126
			} else {
				sig |= 1 << 23
			}
			rawExp := e + bias
			var mag uint32
			if rawExp >= 1 {
				mag = uint32(rawExp-1)<<m + rneShift(sig, 23-m)
			} else if shift := 24 - int(m) - rawExp; shift >= 32 {
				mag = 0
			} else {
				mag = rneShift(sig, uint(shift))
			}
			if mag >= overMag {
				c3 = sign | overCode
			} else {
				c3 = sign | uint8(mag)
			}
		}

		dst[i] = tbl[c0]
		dst[i+1] = tbl[c1]
		dst[i+2] = tbl[c2]
		dst[i+3] = tbl[c3]
	}
	for ; i < n; i++ {
		dst[i] = tbl[c.Encode(src[i]*scale)]
	}
}
