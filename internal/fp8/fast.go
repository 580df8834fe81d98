// Fast codec: fake-quantization (encode+decode in one step) as a map
// from float32 bit patterns to float32 bit patterns. It rounds the
// input's own bits to the format's grid with round-to-nearest-even and
// never builds the 8-bit code. Format.Encode/Decode (format.go) stay
// the reference oracle; the equivalence tests in fast_test.go (and
// `make exhaustive`, over all 2^32 inputs) pin the two paths together.
package fp8

import (
	"math"
	"sync"
)

// Codec holds one format's grid as float32 bit-pattern bounds. Obtain
// instances via Format.Codec(); they are cached per format and safe
// for concurrent use.
type Codec struct {
	format Format
	// shift is the number of float32 mantissa bits the format drops.
	shift uint
	// minNormal and max are the float32 bits of the smallest normal and
	// the largest finite magnitude; over is the magnitude a value past
	// max rounds to (Inf for IEEE formats, max for extended ones, which
	// also covers a round up onto the extended NaN pattern).
	minNormal, max, over uint32
	// nan is the float32 bits every NaN input quantizes to.
	nan uint32
	// subShift minus a float32 exponent field is the right shift that
	// rounds its significand to units of the smallest subnormal, unit.
	subShift int
	unit     float32
	// slow marks exotic formats (hand-built bias/width combinations
	// outside the 8-bit family) that fall back to the scalar oracle.
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
	bits := func(v float64) uint32 { return math.Float32bits(float32(v)) }
	c := &Codec{
		format:    f,
		shift:     23 - f.ManBits,
		minNormal: bits(f.MinNormal()),
		max:       bits(f.MaxValue()),
		over:      bits(f.Decode(f.Inf(1))),
		nan:       bits(f.Decode(f.NaN())),
		subShift:  151 - int(f.ManBits) - f.Bias,
		unit:      float32(f.MinSubnormal()),
	}
	// The bit map needs the smallest subnormal to be a float32 (bias
	// <= 126 keeps it at or above 2^-131) and at least one mantissa bit
	// for round-to-nearest-even parity.
	c.slow = f.ExpBits+f.ManBits != 7 || f.ManBits < 1 || f.Bias > 126
	return c
}

// Format returns the format this codec encodes.
func (c *Codec) Format() Format { return c.format }

// rneShift rounds sig right by s bits (1 <= s <= 31) to nearest, ties
// to even, branch-free: adding half-1 plus the pre-round quotient's
// LSB carries into the quotient exactly when rem > half, or rem == half
// with an odd quotient (the tie-to-even case). sig + 2^(s-1) must not
// overflow uint32, which holds for every float32 magnitude up to Inf.
func rneShift(sig uint32, s uint) uint32 {
	half := uint32(1) << (s - 1)
	return (sig + half - 1 + ((sig >> s) & 1)) >> s
}

// Quantize rounds x to the nearest representable value of the format,
// bit-identical to float32(Format.Quantize(float64(x))) on every
// float32 input, NaN bits included.
func (c *Codec) Quantize(x float32) float32 {
	if c.slow {
		return float32(c.format.Quantize(float64(x)))
	}
	bits := math.Float32bits(x)
	sign := bits & 0x80000000
	mag := bits &^ 0x80000000
	switch {
	case mag > 0x7F800000:
		return math.Float32frombits(c.nan)
	case mag >= c.minNormal:
		// Round the bit pattern itself: a mantissa carry runs into the
		// exponent field, and Inf passes through unchanged.
		mag = rneShift(mag, c.shift) << c.shift
		if mag > c.max {
			mag = c.over
		}
		return math.Float32frombits(sign | mag)
	}
	// Below the smallest normal: round the significand to units of the
	// smallest subnormal. A carry to 2^m lands on the smallest normal,
	// and the product q·unit is exact.
	exp, sig := int(mag>>23), mag&0x7FFFFF
	if exp == 0 {
		exp = 1 // float32 subnormal: no implicit bit
	} else {
		sig |= 1 << 23
	}
	var q uint32
	if s := c.subShift - exp; s < 32 {
		q = rneShift(sig, uint(s))
	}
	if q == 0 {
		return math.Float32frombits(sign) // ±0, also where unit is Inf (bias <= -127-m)
	}
	return math.Float32frombits(math.Float32bits(float32(q)*c.unit) | sign)
}

// QuantizeSlice applies Quantize element-wise, writing into dst (which
// may alias src). It returns dst.
func (c *Codec) QuantizeSlice(dst, src []float32) []float32 {
	return c.QuantizeScaledSlice(dst, src, 1, 1)
}

// QuantizeScaledSlice is the static fake-quant kernel:
// dst[i] = Quantize(src[i]*scale) * inv, writing into dst (which may
// alias src) and returning it. With scale and inv both 1 it is
// QuantizeSlice: v*1 and q*1 keep every float32 but a NaN's payload,
// and Quantize maps every NaN to one NaN. The loop inlines Quantize's
// normal-range branch for magnitudes in [minNormal, max], which
// rounding cannot carry past max, and for ±0, which it maps to itself;
// every other input (subnormal, overflow, Inf, NaN) takes the call.
func (c *Codec) QuantizeScaledSlice(dst, src []float32, scale, inv float32) []float32 {
	dst = dst[:len(src)]
	if c.slow {
		for i, v := range src {
			dst[i] = c.Quantize(v*scale) * inv
		}
		return dst
	}
	// rneShift(bits, s) << s with the two shifts folded into a mask;
	// the sign bit rides along, as no carry reaches it below max.
	lo, span, s := c.minNormal, c.max-c.minNormal, c.shift
	halfm1, mask := uint32(1)<<(s-1)-1, ^uint32(0)<<s
	for i, v := range src {
		x := v * scale
		bits := math.Float32bits(x)
		mag := bits &^ 0x80000000
		if mag == 0 {
			mag = lo // a conditional move on amd64: keeps ReLU zeros inline
		}
		if mag-lo <= span {
			x = math.Float32frombits((bits + halfm1 + (bits>>s)&1) & mask)
		} else {
			x = c.Quantize(x)
		}
		dst[i] = x * inv
	}
	return dst
}
