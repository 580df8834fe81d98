package kernels

// Fused fake-quant panel packing: quantize the B operand while
// scattering it into the micro-panel layout, instead of round-tripping
// the whole tensor through a quantized copy first. This erases one
// full memory pass (write + re-read) over every packed weight or
// activation tensor per GEMM.
//
// Bit-identity: q must be elementwise-pure — quantizing any chunk of
// the tensor must produce exactly the bytes the corresponding slice of
// a whole-tensor q call would (true for every codec quantizer here:
// per-element rounding with a precomputed scale; *not* true for a
// dynamic quantizer that derives its scale from the slice it is
// handed, which is why dynamic recipes bind their absmax before
// returning a chunkable func — see quant.ActQuantFused). Under that
// contract the fused pack writes byte-identical panels to
// quantize-then-PackTInto, so GEMM results are unchanged.

// QuantFunc fake-quantizes src into dst elementwise (dst[i] =
// q(src[i])); dst and src may alias. It mirrors nn.QuantFunc.
type QuantFunc func(dst, src []float32)

// QuantStageFloats returns the stage-buffer length PackTQuantInto and
// PackNQuantInto need for a [in, out] packing (one source row for
// either layout).
func QuantStageFloats(in, out int) int {
	if in > out {
		return in
	}
	return out
}

// PackTQuantInto packs w (row-major [out, in], the Linear weight
// layout) into panel, quantizing each element through q on the way:
// the fused form of q(tmp, w) + PackTInto(panel, tmp, ...). stage must
// have at least in elements and is clobbered; panel needs
// PanelFloats(in, out).
func PackTQuantInto(panel, stage, w []float32, in, out int, q QuantFunc) {
	npan := (out + nr - 1) / nr
	st := stage[:in]
	for pj := 0; pj < npan; pj++ {
		o0 := pj * nr
		cols := out - o0
		if cols > nr {
			cols = nr
		}
		dst := panel[pj*in*nr : (pj+1)*in*nr]
		for j := 0; j < cols; j++ {
			q(st, w[(o0+j)*in:(o0+j+1)*in])
			for k, v := range st {
				dst[k*nr+j] = v
			}
		}
		for j := cols; j < nr; j++ {
			for k := 0; k < in; k++ {
				dst[k*nr+j] = 0
			}
		}
	}
}

// PackNQuantInto packs b (row-major [in, out], the natural matmul
// layout) into panel, quantizing each element through q on the way:
// the fused form of q(tmp, b) + PackNInto(panel, tmp, ...). stage must
// have at least out elements and is clobbered.
func PackNQuantInto(panel, stage, b []float32, in, out int, q QuantFunc) {
	npan := (out + nr - 1) / nr
	st := stage[:out]
	for k := 0; k < in; k++ {
		q(st, b[k*out:(k+1)*out])
		for pj := 0; pj < npan; pj++ {
			o0 := pj * nr
			cols := out - o0
			if cols > nr {
				cols = nr
			}
			d := panel[pj*in*nr+k*nr : pj*in*nr+k*nr+nr]
			copy(d[:cols], st[o0:o0+cols])
			for j := cols; j < nr; j++ {
				d[j] = 0
			}
		}
	}
}
