package quant

import (
	"math"

	"fp8quant/internal/fp8"
	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// StaticFP8Func returns a QuantFunc that scales by fmax/threshold,
// rounds to the FP8 grid, and rescales back (Equation 2's
// s = float_max / max_T scaling).
func StaticFP8Func(f fp8.Format, threshold float64) nn.QuantFunc {
	if threshold <= 0 {
		// Degenerate all-zero tensor: identity.
		return func(dst, src []float32) { copy(dst, src) }
	}
	c := f.Codec()
	scale := float32(f.MaxValue() / threshold)
	inv := 1 / scale
	return func(dst, src []float32) {
		c.QuantizeScaledSlice(dst, src, scale, inv)
	}
}

// DirectFP8Func returns a QuantFunc that encodes values with no
// scaling — the E5M2 "Direct" approach, viable because its dynamic
// range covers typical activations outright.
func DirectFP8Func(f fp8.Format) nn.QuantFunc {
	c := f.Codec()
	return func(dst, src []float32) {
		c.QuantizeSlice(dst, src)
	}
}

// sliceAbsMax is the absmax reduction every dynamic quantizer scales
// by (NaN compares false and is skipped).
func sliceAbsMax(src []float32) float64 {
	am := 0.0
	for _, v := range src {
		a := math.Abs(float64(v))
		if a > am {
			am = a
		}
	}
	return am
}

// DynamicFP8Func returns a QuantFunc that recomputes the absmax scale
// on every call (dynamic quantization).
func DynamicFP8Func(f fp8.Format) nn.QuantFunc {
	c := f.Codec()
	return func(dst, src []float32) {
		am := sliceAbsMax(src)
		if am == 0 {
			copy(dst, src)
			return
		}
		scale := float32(f.MaxValue() / am)
		inv := 1 / scale
		c.QuantizeScaledSlice(dst, src, scale, inv)
	}
}

// StaticInt8Func returns an affine INT8 QuantFunc over the calibrated
// [min, max] activation range.
func StaticInt8Func(min, max float64) nn.QuantFunc {
	q := fp8.NewInt8Asymmetric(min, max)
	return func(dst, src []float32) {
		for i, v := range src {
			dst[i] = float32(q.Quantize(float64(v)))
		}
	}
}

// DynamicInt8Func returns a symmetric INT8 QuantFunc with a per-call
// absmax scale.
func DynamicInt8Func() nn.QuantFunc {
	return func(dst, src []float32) {
		q := fp8.NewInt8Symmetric(sliceAbsMax(src))
		for i, v := range src {
			dst[i] = float32(q.Quantize(float64(v)))
		}
	}
}

// ActQuantFunc builds the activation QuantFunc for a recipe given the
// calibrated range. For Static it uses the threshold/minmax; Dynamic
// and Direct ignore them.
func ActQuantFunc(r Recipe, threshold, min, max float64) nn.QuantFunc {
	switch {
	case r.Act == FP32:
		return nil
	case r.Act == INT8:
		if r.Approach == Dynamic {
			return DynamicInt8Func()
		}
		return StaticInt8Func(min, max)
	case r.Approach == Direct:
		return DirectFP8Func(r.Act.Format())
	case r.Approach == Dynamic:
		return DynamicFP8Func(r.Act.Format())
	default:
		return StaticFP8Func(r.Act.Format(), threshold)
	}
}

// QuantizeWeightPerChannel fake-quantizes a weight tensor in place with
// an independent max-derived scale per output channel (the standard
// scheme's weight granularity) and returns a restore copy of the
// original data.
func QuantizeWeightPerChannel(w *tensor.Tensor, dim int, d DType) []float32 {
	master := append([]float32(nil), w.Data...)
	quantizeChannels(w, dim, d)
	return master
}

// quantizeChannels is QuantizeWeightPerChannel without the restore
// copy: Quantize saves each weight's master once itself.
func quantizeChannels(w *tensor.Tensor, dim int, d DType) {
	if d == FP32 {
		return
	}
	if dim != 0 {
		panic("quant: only leading-dim channel scaling is supported")
	}
	out := w.Shape[0]
	per := w.Len() / out
	var codec *fp8.Codec
	var fmax float64
	if d != INT8 {
		codec = d.Format().Codec()
		fmax = d.Format().MaxValue()
	}
	for c := 0; c < out; c++ {
		seg := w.Data[c*per : (c+1)*per]
		am := sliceAbsMax(seg)
		if am == 0 {
			continue
		}
		if d == INT8 {
			q := fp8.NewInt8Symmetric(am)
			for i, v := range seg {
				seg[i] = float32(q.Quantize(float64(v)))
			}
			continue
		}
		scale := float32(fmax / am)
		inv := 1 / scale
		codec.QuantizeScaledSlice(seg, seg, scale, inv)
	}
}

// QuantizeWeightPerTensor fake-quantizes a weight tensor in place with
// a single max-derived scale, returning the restore copy. Used by the
// ablation comparing per-tensor to per-channel weight scaling.
func QuantizeWeightPerTensor(w *tensor.Tensor, d DType) []float32 {
	master := append([]float32(nil), w.Data...)
	if d == FP32 {
		return master
	}
	am := w.AbsMax()
	if am == 0 {
		return master
	}
	switch d {
	case INT8:
		q := fp8.NewInt8Symmetric(am)
		q.QuantizeSlice(w.Data, w.Data)
	default:
		c := d.Format().Codec()
		scale := float32(c.Format().MaxValue() / am)
		inv := 1 / scale
		c.QuantizeScaledSlice(w.Data, w.Data, scale, inv)
	}
	return master
}
