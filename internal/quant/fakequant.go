package quant

import (
	"math"

	"fp8quant/internal/fp8"
	"fp8quant/internal/tensor"
)

// ActQuant is one activation site's fake-quantizer: the mode a
// recipe's activation approach selects, with the state that mode
// needs. Set fills it in place and Apply runs it, so a site that keeps
// one ActQuant and one hook bound to it for its life installs each
// recipe without allocating. The zero value copies its input.
type ActQuant struct {
	mode actMode
	// codec is the FP8 modes' codec; scale and inv are static FP8's
	// fmax/threshold scale and its inverse.
	codec      *fp8.Codec
	scale, inv float32
	// int8 is static INT8's affine quantizer over the calibrated range.
	int8 fp8.Int8Asymmetric
}

// actMode is an ActQuant's quantization.
type actMode uint8

const (
	actCopy        actMode = iota // identity: FP32, or static FP8 with threshold <= 0
	actStaticFP8                  // Equation 2's fixed fmax/threshold scale
	actDirectFP8                  // FP8 encode with no scaling (E5M2 Direct)
	actDynamicFP8                 // a fresh absmax scale per call
	actStaticInt8                 // affine INT8 over the calibrated [min, max]
	actDynamicInt8                // symmetric INT8 with a per-call absmax scale
)

// Set configures q for recipe r's activations given the calibrated
// range: Static uses the threshold (FP8) or [min, max] (INT8); Dynamic
// and Direct ignore them. An FP32 recipe sets the identity.
func (q *ActQuant) Set(r Recipe, threshold, min, max float64) {
	*q = ActQuant{}
	switch {
	case r.Act == FP32:
	case r.Act == INT8 && r.Approach == Dynamic:
		q.mode = actDynamicInt8
	case r.Act == INT8:
		q.mode, q.int8 = actStaticInt8, fp8.NewInt8Asymmetric(min, max)
	case r.Approach == Direct:
		q.mode, q.codec = actDirectFP8, r.Act.Format().Codec()
	case r.Approach == Dynamic:
		q.mode, q.codec = actDynamicFP8, r.Act.Format().Codec()
	case threshold <= 0:
		// Degenerate all-zero tensor: identity.
	default:
		f := r.Act.Format()
		q.mode, q.codec = actStaticFP8, f.Codec()
		q.scale = float32(f.MaxValue() / threshold)
		q.inv = 1 / q.scale
	}
}

// Apply fake-quantizes src into dst, which may alias src.
func (q *ActQuant) Apply(dst, src []float32) {
	switch q.mode {
	case actCopy:
		copy(dst, src)
	case actStaticFP8:
		q.codec.QuantizeScaledSlice(dst, src, q.scale, q.inv)
	case actDirectFP8:
		q.codec.QuantizeSlice(dst, src)
	case actDynamicFP8:
		am := sliceAbsMax(src)
		if am == 0 {
			copy(dst, src)
			return
		}
		scale := float32(q.codec.Format().MaxValue() / am)
		q.codec.QuantizeScaledSlice(dst, src, scale, 1/scale)
	case actStaticInt8:
		for i, v := range src {
			dst[i] = float32(q.int8.Quantize(float64(v)))
		}
	case actDynamicInt8:
		fp8.NewInt8Symmetric(sliceAbsMax(src)).QuantizeSlice(dst, src)
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
