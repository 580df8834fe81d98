package quant

import (
	"math"
	"testing"

	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// fusedRecipes is the activation-quantization matrix the fused-packing
// path must reproduce bit for bit: every approach×dtype combination
// ActQuantFused supports (SmoothQuant is excluded by construction —
// convert() leaves InputFused nil there).
var fusedRecipes = []struct {
	name      string
	r         Recipe
	threshold float64
	min, max  float64
}{
	{"static-e4m3", Recipe{Act: E4M3, Approach: Static}, 2.5, -2.5, 2.5},
	{"static-e5m2", Recipe{Act: E5M2, Approach: Static}, 3.75, -3.75, 3.75},
	{"dynamic-e4m3", Recipe{Act: E4M3, Approach: Dynamic}, 0, 0, 0},
	{"direct-e5m2", Recipe{Act: E5M2, Approach: Direct}, 0, 0, 0},
	{"static-int8", Recipe{Act: INT8, Approach: Static}, 0, -3, 3},
	{"dynamic-int8", Recipe{Act: INT8, Approach: Dynamic}, 0, 0, 0},
}

// fillFused populates dst with multi-binade data (plus exact zeros) so
// a fused path that bound its dynamic scale over the wrong span, or
// reassociated anything, cannot survive the bit comparison.
func fillFused(dst []float32, rng *tensor.RNG) {
	for i := range dst {
		v := float32(rng.Norm())
		switch i % 5 {
		case 0:
			v *= 100
		case 3:
			v *= 1e-4
		case 4:
			v = 0
		}
		dst[i] = v
	}
}

func bitsEq(t *testing.T, tag string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", tag, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: first bit difference at %d: %x vs %x (%g vs %g)",
				tag, i, math.Float32bits(got[i]), math.Float32bits(want[i]), got[i], want[i])
		}
	}
}

// TestFusedQuantMatchesUnfused proves the quantize-during-pack route is
// invisible: a BatchMatMulOp whose b-operand QState carries
// both Input and InputFused produces byte-identical outputs to one
// carrying only Input (the materialize-a-quantized-copy path), for
// every recipe, on both the heap and arena forward paths, including
// batched operands (where a dynamic scale must span the whole tensor,
// not one batch element).
func TestFusedQuantMatchesUnfused(t *testing.T) {
	for _, tc := range fusedRecipes {
		t.Run(tc.name, func(t *testing.T) {
			fn := ActQuantFunc(tc.r, tc.threshold, tc.min, tc.max)
			factory := ActQuantFused(tc.r, tc.threshold, tc.min, tc.max)
			if fn == nil || factory == nil {
				t.Fatal("recipe produced nil quant funcs")
			}

			rng := tensor.NewRNG(0xF5ED)
			batch, M, K, N := 3, 7, 33, 18
			a := tensor.New(batch, M, K)
			fillFused(a.Data, rng)

			for _, transB := range []bool{false, true} {
				b := tensor.New(batch, K, N)
				if transB {
					b = tensor.New(batch, N, K)
				}
				fillFused(b.Data, rng)

				unfused := &nn.BatchMatMulOp{TransposeB: transB}
				unfused.QB.Input = fn
				fused := &nn.BatchMatMulOp{TransposeB: transB}
				fused.QB.Input = fn
				fused.QB.InputFused = factory

				want := unfused.Apply(nil, a, b)
				got := fused.Apply(nil, a, b)
				bitsEq(t, tc.name+"/heap", got.Data, want.Data)

				ar := &tensor.Arena{}
				gotAr := fused.Apply(ar, a, b)
				bitsEq(t, tc.name+"/arena", gotAr.Data, want.Data)
				ar.Reset()
			}
		})
	}
}

// TestQuantizeInstallsFusedHook runs the full Quantize flow over a tiny
// model with extended ops and checks the b-operand input sites got the
// fused factory — and that SmoothQuant leaves it nil (position-
// dependent divisors are not chunkable).
func TestQuantizeInstallsFusedHook(t *testing.T) {
	mm := &nn.BatchMatMulOp{}
	// The hooks are installed by target conversion; drive it directly.
	r := Recipe{Act: E4M3, Wgt: FP32, Approach: Dynamic, ExtendedOps: true}
	tg := &target{path: "mm#b", kind: mm.Kind(), qs: &mm.QB}
	h := &Handle{Report: Report{QuantizedOps: map[string]int{}}}
	tg.convert(r, h)
	if mm.QB.Input == nil || mm.QB.InputFused == nil {
		t.Fatal("convert did not install both Input and InputFused on an input site")
	}
	mm.QB.Reset()
	if mm.QB.InputFused != nil {
		t.Fatal("Reset did not clear InputFused")
	}

	sm := &target{path: "l", kind: "Linear", qs: &mm.QB, smooth: []float64{1, 1}}
	sm.convert(r, h)
	if mm.QB.Input == nil {
		t.Fatal("smoothed site lost its Input hook")
	}
	if mm.QB.InputFused != nil {
		t.Fatal("smoothed site must not get a fused factory")
	}
}
