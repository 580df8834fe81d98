package quant

import (
	"math"
	"testing"

	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// hookRecipes is the activation-quantization matrix the BatchMatMul
// input hook is checked over: FP8 static, direct and dynamic, INT8
// static and dynamic.
var hookRecipes = []struct {
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

// fillMixed populates dst with multi-binade data (plus exact zeros), and
// gives each consecutive quarter of it a different magnitude, so a hook
// that scaled a batch element by its own absmax instead of the whole
// operand's cannot survive the bit comparison.
func fillMixed(dst []float32, rng *tensor.RNG) {
	for i := range dst {
		v := float32(rng.Norm()) * float32(int(1)<<(4*(4*i/len(dst))))
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

// TestBMMInputHookQuantizesWholeOperand: a BatchMatMulOp whose
// b-operand QState carries a site's Input hook multiplies by the hook
// applied to the whole b tensor, on both the heap and arena forward
// paths, for every recipe and both b layouts, and the hook quantizes
// the operand bit for bit as the per-call closure oracle does. The
// operand is batched, so a dynamic scale must span every batch element,
// not one.
func TestBMMInputHookQuantizesWholeOperand(t *testing.T) {
	for _, tc := range hookRecipes {
		t.Run(tc.name, func(t *testing.T) {
			fn := siteHook(tc.r, tc.threshold, tc.min, tc.max)
			oracle := oracleActFunc(tc.r, tc.threshold, tc.min, tc.max)

			rng := tensor.NewRNG(0xF5ED)
			batch, M, K, N := 3, 7, 33, 18
			a := tensor.New(batch, M, K)
			fillMixed(a.Data, rng)

			for _, transB := range []bool{false, true} {
				b := tensor.New(batch, K, N)
				if transB {
					b = tensor.New(batch, N, K)
				}
				fillMixed(b.Data, rng)
				qb := tensor.New(b.Shape...)
				fn(qb.Data, b.Data)
				wantQ := tensor.New(b.Shape...)
				oracle(wantQ.Data, b.Data)
				bitsEq(t, tc.name+"/operand", qb.Data, wantQ.Data)

				plain := &nn.BatchMatMulOp{TransposeB: transB}
				want := plain.Apply(nil, a, qb)
				hooked := &nn.BatchMatMulOp{TransposeB: transB}
				hooked.QB.Input = fn

				got := hooked.Apply(nil, a, b)
				bitsEq(t, tc.name+"/heap", got.Data, want.Data)

				ar := &tensor.Arena{}
				gotAr := hooked.Apply(ar, a, b)
				bitsEq(t, tc.name+"/arena", gotAr.Data, want.Data)
				ar.Reset()

				if tc.r.Approach == Dynamic {
					// The check has teeth: scaling each batch element by
					// its own absmax gives other bytes.
					per := tensor.New(b.Shape...)
					n := b.Len() / batch
					for i := 0; i < batch; i++ {
						fn(per.Data[i*n:(i+1)*n], b.Data[i*n:(i+1)*n])
					}
					if equalBits(per.Data, qb.Data) {
						t.Fatal("per-element and whole-operand dynamic scales agree; the data cannot tell them apart")
					}
				}
			}
		})
	}
}

// TestConvertInstallsInputHook runs site conversion with extended ops
// and checks the b-operand input site gets an Input hook, that Reset
// clears it, and that a SmoothQuant-smoothed site keeps its hook.
func TestConvertInstallsInputHook(t *testing.T) {
	mm := &nn.BatchMatMulOp{}
	// The hooks are installed by site conversion; drive it directly on
	// the table of a model that is just the op (sites #a, #b).
	r := Recipe{Act: E4M3, Wgt: FP32, Approach: Dynamic, ExtendedOps: true}
	var s Sites
	s.build(mm)
	rep := Report{QuantizedOps: map[string]int{}}
	s.convert(&s.targets[1], r, &rep)
	if mm.QB.Input == nil {
		t.Fatal("convert did not install Input on an input site")
	}
	mm.QB.Reset()
	if mm.QB.Input != nil {
		t.Fatal("Reset did not clear Input")
	}

	l := nn.NewLinear(2, 2)
	var ls Sites
	ls.build(l)
	ls.carveSmooth()
	sm := &ls.targets[0]
	sm.smoothing = true
	ls.convert(sm, r, &rep)
	if l.QS.Input == nil {
		t.Fatal("smoothed site lost its Input hook")
	}
}

func equalBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
