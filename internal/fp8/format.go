// Package fp8 implements bit-accurate software emulation of 8-bit
// floating-point formats (E5M2, E4M3, E3M4) and 8-bit integer quantization.
//
// The three FP8 formats follow Table 1 of "Efficient Post-training
// Quantization with FP8 Formats" (Shen et al., MLSys 2024):
//
//	         E5M2      E4M3     E3M4
//	bias     15        7        3
//	max      57344.0   448.0    30.0
//	min>0    1.5e-5    1.9e-3   1.5e-2   (smallest subnormal)
//	NaN      all       single   single
//	Inf      yes       no       no
//
// E5M2 uses IEEE-754-like encoding rules (exponent all-ones encodes
// Inf/NaN). E4M3 and E3M4 use the extended encoding of Micikevicius et
// al. (2022): the all-ones exponent is reclaimed for normal values and a
// single bit pattern (all ones, i.e. S.1111.111 for E4M3) represents NaN;
// there is no Infinity and out-of-range values saturate to ±max.
//
// Round-to-nearest-even is used for all conversions, matching the FP8
// Emulation Toolkit the paper relies on.
package fp8

import "math"

// Format describes an 8-bit floating-point binary format with a sign bit,
// ExpBits exponent bits and ManBits mantissa bits (ExpBits+ManBits == 7).
type Format struct {
	// Name is the conventional EeMm name, e.g. "E4M3".
	Name string
	// ExpBits is the number of exponent bits.
	ExpBits uint
	// ManBits is the number of mantissa (fraction) bits.
	ManBits uint
	// Bias is the exponent bias.
	Bias int
	// IEEE selects IEEE-like special-value encoding: the all-ones
	// exponent field encodes Inf (mantissa 0) and NaN (mantissa != 0).
	// When false, the extended encoding is used: all-ones exponent
	// encodes ordinary values except the single all-ones bit pattern,
	// which is NaN; there is no Inf and conversion saturates.
	IEEE bool
}

// The three formats studied in the paper. E5M2 follows IEEE encoding
// rules; E4M3 and E3M4 use the extended encoding (no Inf, single NaN).
var (
	E5M2 = Format{Name: "E5M2", ExpBits: 5, ManBits: 2, Bias: 15, IEEE: true}
	E4M3 = Format{Name: "E4M3", ExpBits: 4, ManBits: 3, Bias: 7, IEEE: false}
	E3M4 = Format{Name: "E3M4", ExpBits: 3, ManBits: 4, Bias: 3, IEEE: false}
)

// Formats lists the three paper formats in the order used throughout the
// evaluation tables.
var Formats = []Format{E5M2, E4M3, E3M4}

// String returns the format name.
func (f Format) String() string { return f.Name }

// expField returns the maximum raw exponent field value (all ones).
func (f Format) expField() int { return (1 << f.ExpBits) - 1 }

// maxRawExp returns the largest exponent field value that encodes a
// normal number.
func (f Format) maxRawExp() int {
	if f.IEEE {
		return f.expField() - 1 // all-ones reserved for Inf/NaN
	}
	return f.expField()
}

// MaxValue returns the largest finite representable magnitude.
//
// For IEEE encoding this is (2 - 2^-m) * 2^(emax) with emax =
// maxRawExp-bias. For the extended encoding the all-ones
// exponent/mantissa combination is NaN, so the largest magnitude drops
// one mantissa step: (2 - 2^-(m-1)) * 2^(emax).
func (f Format) MaxValue() float64 {
	emax := f.maxRawExp() - f.Bias
	m := float64(int64(1) << f.ManBits)
	frac := (m - 1) / m // all mantissa bits set
	if !f.IEEE {
		frac = (m - 2) / m // all-ones bit pattern is NaN
	}
	return (1 + frac) * math.Ldexp(1, emax)
}

// MinNormal returns the smallest positive normal value, 2^(1-bias).
func (f Format) MinNormal() float64 {
	return math.Ldexp(1, 1-f.Bias)
}

// MinSubnormal returns the smallest positive subnormal value,
// 2^(1-bias-m).
func (f Format) MinSubnormal() float64 {
	return math.Ldexp(1, 1-f.Bias-int(f.ManBits))
}

// HasInf reports whether the format can represent infinities.
func (f Format) HasInf() bool { return f.IEEE }

// NaN returns a canonical NaN bit pattern for the format.
func (f Format) NaN() uint8 {
	if f.IEEE {
		// Exponent all ones, mantissa non-zero (quiet bit set).
		return uint8(f.expField())<<f.ManBits | 1<<(f.ManBits-1)
	}
	return 0x7F // all ones (positive sign)
}

// Inf returns the bit pattern of +Inf or -Inf for IEEE formats. For
// extended formats (no Inf) it returns the saturated ±max encoding.
func (f Format) Inf(sign int) uint8 {
	var s uint8
	if sign < 0 {
		s = 0x80
	}
	if f.IEEE {
		return s | uint8(f.expField())<<f.ManBits
	}
	return s | f.maxCode()
}

// maxCode returns the magnitude bits of the largest finite value.
func (f Format) maxCode() uint8 {
	if f.IEEE {
		return uint8(f.maxRawExp())<<f.ManBits | uint8((1<<f.ManBits)-1)
	}
	return 0x7F - 1 // one below NaN
}

// IsNaN reports whether the given bit pattern encodes NaN.
func (f Format) IsNaN(b uint8) bool {
	if f.IEEE {
		exp := int(b>>f.ManBits) & f.expField()
		man := b & uint8((1<<f.ManBits)-1)
		return exp == f.expField() && man != 0
	}
	return b&0x7F == 0x7F
}

// IsInf reports whether the bit pattern encodes ±Inf (always false for
// extended formats).
func (f Format) IsInf(b uint8) bool {
	if !f.IEEE {
		return false
	}
	exp := int(b>>f.ManBits) & f.expField()
	man := b & uint8((1<<f.ManBits)-1)
	return exp == f.expField() && man == 0
}

// Decode converts an 8-bit code to its float64 value.
func (f Format) Decode(b uint8) float64 {
	sign := 1.0
	if b&0x80 != 0 {
		sign = -1
	}
	exp := int(b>>f.ManBits) & f.expField()
	man := int(b) & ((1 << f.ManBits) - 1)
	if f.IsNaN(b) {
		return math.NaN()
	}
	if f.IsInf(b) {
		return math.Inf(int(sign))
	}
	if exp == 0 {
		// Subnormal: value = mantissa * 2^(1-bias-m).
		return sign * float64(man) * math.Ldexp(1, 1-f.Bias-int(f.ManBits))
	}
	return sign * (1 + float64(man)/float64(int64(1)<<f.ManBits)) * math.Ldexp(1, exp-f.Bias)
}

// Encode converts a float64 to the nearest representable 8-bit code
// using round-to-nearest-even. Values beyond MaxValue saturate for
// extended formats and overflow to Inf for IEEE formats (matching the
// behaviour of hardware converters with saturation disabled for E5M2).
func (f Format) Encode(x float64) uint8 {
	var sign uint8
	if math.Signbit(x) {
		sign = 0x80
		x = -x
	}
	switch {
	case math.IsNaN(x):
		return f.NaN()
	case math.IsInf(x, 0):
		return f.Inf(int(1 - 2*int(sign>>7)))
	case x == 0:
		return sign // ±0
	}

	max := f.MaxValue()
	if x > max {
		// Overflow policy: IEEE formats round to Inf once past the
		// midpoint between max and the next (unrepresentable) grid
		// step; extended formats always saturate to ±max. float64(...)
		// rounds the (exact) half-ulp product explicitly, so arm64
		// cannot fuse it into the add.
		ulp := math.Ldexp(1, f.maxRawExp()-f.Bias-int(f.ManBits))
		if f.IEEE && x >= max+float64(ulp/2) {
			return sign | uint8(f.expField())<<f.ManBits
		}
		return sign | f.maxCode()
	}

	// Scale into fixed-point mantissa units and round to nearest even.
	minNormal := f.MinNormal()
	if x < minNormal {
		// Subnormal range: unit = 2^(1-bias-m).
		unit := f.MinSubnormal()
		q := roundHalfEven(x / unit)
		if q >= 1<<f.ManBits {
			// Rounded up into the normal range.
			return sign | 1<<f.ManBits
		}
		return sign | uint8(q)
	}

	exp := math.Floor(math.Log2(x))
	e := int(exp)
	// Guard against log2 edge cases at power-of-two boundaries.
	if math.Ldexp(1, e) > x {
		e--
	} else if math.Ldexp(1, e+1) <= x {
		e++
	}
	frac := x/math.Ldexp(1, e) - 1 // in [0,1)
	// An exact power-of-two product, rounded explicitly so arm64 cannot
	// fuse it into roundHalfEven's subtraction.
	q := roundHalfEven(float64(frac * float64(int64(1)<<f.ManBits)))
	if q == 1<<f.ManBits {
		// Mantissa overflowed; bump exponent.
		q = 0
		e++
	}
	rawExp := e + f.Bias
	if rawExp > f.maxRawExp() {
		if f.IEEE {
			return sign | uint8(f.expField())<<f.ManBits
		}
		return sign | f.maxCode()
	}
	code := sign | uint8(rawExp)<<f.ManBits | uint8(q)
	if !f.IEEE && code&0x7F == 0x7F {
		// Rounded exactly onto the NaN pattern: saturate instead.
		return sign | f.maxCode()
	}
	return code
}

// Quantize rounds x to the nearest representable value of the format
// (quantize-dequantize in one step).
func (f Format) Quantize(x float64) float64 {
	return f.Decode(f.Encode(x))
}

// GridPoints returns all non-negative finite representable values in
// ascending order. Useful for plotting the quantization grid (Figure 1).
func (f Format) GridPoints() []float64 {
	var pts []float64
	for b := 0; b < 128; b++ {
		c := uint8(b)
		if f.IsNaN(c) || f.IsInf(c) {
			continue
		}
		pts = append(pts, f.Decode(c))
	}
	return pts
}

// roundHalfEven rounds to the nearest integer, ties to even.
func roundHalfEven(x float64) int {
	fl := math.Floor(x)
	diff := x - fl
	n := int(fl)
	switch {
	case diff > 0.5:
		return n + 1
	case diff < 0.5:
		return n
	default:
		if n%2 != 0 {
			return n + 1
		}
		return n
	}
}
