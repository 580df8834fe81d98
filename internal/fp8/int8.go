package fp8

import "math"

// Int8Symmetric implements symmetric signed INT8 quantization with a
// single positive scale: q = clamp(round(x/scale), -127, 127),
// dequant = q*scale. This mirrors the INT8 baseline scheme used in the
// paper's comparison (symmetric, scale = absmax/127).
type Int8Symmetric struct {
	// Scale maps quantized units back to real values. Must be > 0.
	Scale float64
}

// NewInt8Symmetric builds a symmetric INT8 quantizer from the calibrated
// absolute-maximum value of a tensor. A zero or negative absmax yields a
// degenerate quantizer with scale 1.
func NewInt8Symmetric(absmax float64) Int8Symmetric {
	if absmax <= 0 || math.IsNaN(absmax) || math.IsInf(absmax, 0) {
		return Int8Symmetric{Scale: 1}
	}
	return Int8Symmetric{Scale: absmax / 127}
}

// Encode quantizes x to an int8 code. NaN maps to code 0 explicitly:
// converting a NaN float64 to an integer is implementation-dependent in
// Go (0 on amd64, 0x7FFFFFFF on riscv64).
func (q Int8Symmetric) Encode(x float64) int8 {
	v := math.RoundToEven(x / q.Scale)
	if math.IsNaN(v) {
		return 0
	}
	if v > 127 {
		v = 127
	} else if v < -127 {
		v = -127
	}
	return int8(v)
}

// Decode converts an int8 code back to a real value.
func (q Int8Symmetric) Decode(c int8) float64 { return float64(c) * q.Scale }

// Quantize rounds x to its nearest representable INT8 value.
func (q Int8Symmetric) Quantize(x float64) float64 { return q.Decode(q.Encode(x)) }

// QuantizeSlice applies Quantize element-wise, writing into dst (which
// may alias src). It returns dst.
func (q Int8Symmetric) QuantizeSlice(dst, src []float32) []float32 {
	for i, v := range src {
		dst[i] = float32(q.Quantize(float64(v)))
	}
	return dst
}

// Int8Asymmetric implements affine (asymmetric) unsigned INT8
// quantization: q = clamp(round(x/scale)+zp, 0, 255). Used for
// activation tensors with non-symmetric ranges in the INT8 baseline.
type Int8Asymmetric struct {
	Scale     float64
	ZeroPoint int
}

// NewInt8Asymmetric builds an affine quantizer covering [min, max].
func NewInt8Asymmetric(min, max float64) Int8Asymmetric {
	if min > 0 {
		min = 0
	}
	if max < 0 {
		max = 0
	}
	scale := (max - min) / 255
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return Int8Asymmetric{Scale: 1, ZeroPoint: 0}
	}
	zp := int(math.RoundToEven(-min / scale))
	if zp < 0 {
		zp = 0
	} else if zp > 255 {
		zp = 255
	}
	return Int8Asymmetric{Scale: scale, ZeroPoint: zp}
}

// Encode quantizes x to an unsigned 8-bit code. NaN maps to code 0
// explicitly, as in Int8Symmetric.Encode.
func (q Int8Asymmetric) Encode(x float64) uint8 {
	v := math.RoundToEven(x/q.Scale) + float64(q.ZeroPoint)
	if math.IsNaN(v) {
		return 0
	}
	if v > 255 {
		v = 255
	} else if v < 0 {
		v = 0
	}
	return uint8(v)
}

// Decode converts a code back to a real value.
func (q Int8Asymmetric) Decode(c uint8) float64 {
	return (float64(c) - float64(q.ZeroPoint)) * q.Scale
}

// Quantize rounds x to its nearest representable value.
func (q Int8Asymmetric) Quantize(x float64) float64 { return q.Decode(q.Encode(x)) }

// Int8GridPoints returns the non-negative representable values of a
// symmetric INT8 quantizer, for grid-density comparisons (Figure 1).
func Int8GridPoints(absmax float64) []float64 {
	q := NewInt8Symmetric(absmax)
	pts := make([]float64, 0, 128)
	for c := 0; c <= 127; c++ {
		pts = append(pts, q.Decode(int8(c)))
	}
	return pts
}
