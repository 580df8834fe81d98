package quant

import (
	"fmt"
	"math"
	"testing"

	"fp8quant/internal/fp8"
	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// oracleActFunc is the activation quantizer as a closure per site and
// call, the construction ActQuant replaced, kept as the oracle the site
// hook must match bit for bit: Static FP8 scales by fmax/threshold
// (identity for threshold <= 0), Direct encodes unscaled, Dynamic FP8
// rescales by each call's absmax (identity for absmax 0), INT8 is
// affine over [min, max] when static and symmetric per call when
// dynamic. FP32 installs no hook (nil).
func oracleActFunc(r Recipe, threshold, min, max float64) nn.QuantFunc {
	switch {
	case r.Act == FP32:
		return nil
	case r.Act == INT8:
		if r.Approach == Dynamic {
			return func(dst, src []float32) {
				q := fp8.NewInt8Symmetric(sliceAbsMax(src))
				for i, v := range src {
					dst[i] = float32(q.Quantize(float64(v)))
				}
			}
		}
		q := fp8.NewInt8Asymmetric(min, max)
		return func(dst, src []float32) {
			for i, v := range src {
				dst[i] = float32(q.Quantize(float64(v)))
			}
		}
	case r.Approach == Direct:
		c := r.Act.Format().Codec()
		return func(dst, src []float32) { c.QuantizeSlice(dst, src) }
	case r.Approach == Dynamic:
		f := r.Act.Format()
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
	default:
		if threshold <= 0 {
			return func(dst, src []float32) { copy(dst, src) }
		}
		f := r.Act.Format()
		c := f.Codec()
		scale := float32(f.MaxValue() / threshold)
		inv := 1 / scale
		return func(dst, src []float32) { c.QuantizeScaledSlice(dst, src, scale, inv) }
	}
}

// siteHook returns the activation hook of a site whose quantizer is set
// for recipe r and the given calibration: the bound method a Quantize
// installs on the site's QState.
func siteHook(r Recipe, threshold, min, max float64) nn.QuantFunc {
	var s Sites
	s.build(&nn.BatchMatMulOp{})
	t := &s.targets[1]
	t.act.Set(r, threshold, min, max)
	return t.quantize
}

// actCases covers every ActQuant mode: static FP8 in each format, with
// a degenerate (zero, negative, NaN) threshold, Direct, Dynamic FP8,
// static INT8 over symmetric, one-sided and empty ranges, dynamic INT8.
var actCases = []struct {
	r                   Recipe
	threshold, min, max float64
}{
	{Recipe{Act: E4M3, Approach: Static}, 2.5, -2.5, 2.5},
	{Recipe{Act: E5M2, Approach: Static}, 3.75, -3.75, 3.75},
	{Recipe{Act: E3M4, Approach: Static}, 2, -2, 2},
	{Recipe{Act: E4M3, Approach: Static}, 0, 0, 0},
	{Recipe{Act: E3M4, Approach: Static}, -1, 0, 0},
	{Recipe{Act: E4M3, Approach: Static}, math.NaN(), 0, 0},
	{Recipe{Act: E5M2, Approach: Direct}, 0, 0, 0},
	{Recipe{Act: E4M3, Approach: Direct}, 7, -7, 7},
	{Recipe{Act: E4M3, Approach: Dynamic}, 0, 0, 0},
	{Recipe{Act: E3M4, Approach: Dynamic}, 5, -5, 5},
	{Recipe{Act: INT8, Approach: Static}, 3, -3, 3},
	{Recipe{Act: INT8, Approach: Static}, 0, 0.5, 4},
	{Recipe{Act: INT8, Approach: Static}, 0, 0, 0},
	{Recipe{Act: INT8, Approach: Direct}, 0, -1, 2},
	{Recipe{Act: INT8, Approach: Dynamic}, 0, 0, 0},
}

// actInputs are the inputs every mode is compared on, each applied
// in this order through one hook, so a mode that kept state from its
// previous call (a dynamic absmax) would diverge: multi-binade data,
// IEEE specials (NaN, ±Inf, -0), an all-zero input, and small values
// after large ones.
func actInputs() [][]float32 {
	rng := tensor.NewRNG(0xAC7)
	mixed := make([]float32, 257)
	fillMixed(mixed, rng)
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	return [][]float32{
		mixed,
		{1.5, -2.5, 0.3, negZero, 100, -1e-3, 3.3, 448, 1e-9},
		{nan, 1, -2, nan, negZero, 0.25},
		{inf, -1, 2, -inf, 0.5},
		{0, negZero, 0, 0},
		{1e-3, -2e-3, 3e-3, 0},
		{nan, nan},
	}
}

// TestActQuantVariants: the site hook computes exactly what the
// per-call closures computed, bit for bit (NaN payloads included), for
// every mode, input and aliasing, across repeated calls, and after the
// site's quantizer was set for another recipe first.
func TestActQuantVariants(t *testing.T) {
	inputs := actInputs()
	for ci, tc := range actCases {
		t.Run(fmt.Sprintf("%d/%s-%v-th%v", ci, tc.r.Act, tc.r.Approach, tc.threshold), func(t *testing.T) {
			want := oracleActFunc(tc.r, tc.threshold, tc.min, tc.max)
			// The same site set for the previous case first: Set must
			// leave nothing of it behind.
			prev := actCases[(ci+len(actCases)-1)%len(actCases)]
			var s Sites
			s.build(&nn.BatchMatMulOp{})
			site := &s.targets[1]
			site.act.Set(prev.r, prev.threshold, prev.min, prev.max)
			site.quantize(make([]float32, 3), []float32{9, -9, 1})
			site.act.Set(tc.r, tc.threshold, tc.min, tc.max)
			hooks := []struct {
				name string
				fn   nn.QuantFunc
			}{
				{"fresh site", siteHook(tc.r, tc.threshold, tc.min, tc.max)},
				{"reset site", site.quantize},
			}
			for _, h := range hooks {
				name, got := h.name, h.fn
				for ii, in := range inputs {
					w := make([]float32, len(in))
					want(w, in)
					g := make([]float32, len(in))
					got(g, in)
					bitsEq(t, fmt.Sprintf("%s input %d", name, ii), g, w)
					alias := append([]float32(nil), in...)
					got(alias, alias)
					bitsEq(t, fmt.Sprintf("%s input %d in place", name, ii), alias, w)
				}
			}
		})
	}
	// An FP32 recipe quantizes nothing, so Set leaves the identity
	// (Quantize installs no hook for it: TestWeightOnlyRecipe).
	fp32 := siteHook(Recipe{Act: FP32}, 1, -1, 1)
	in := []float32{3.3, float32(math.NaN()), -0.1}
	got := make([]float32, len(in))
	fp32(got, in)
	bitsEq(t, "fp32", got, in)
}
