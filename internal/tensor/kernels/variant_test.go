package kernels

import (
	"math"
	"math/big"
	"runtime"
	"testing"

	"fp8quant/internal/tensor"
)

func TestVariantDispatch(t *testing.T) {
	av := Available()
	if len(av) == 0 {
		t.Fatal("no variants available")
	}
	if av[len(av)-1] != VariantGeneric {
		t.Errorf("Available() = %v, want generic last", av)
	}
	if runtime.GOARCH == "amd64" {
		found := false
		for _, v := range av {
			if v == VariantSSE {
				found = true
			}
		}
		if !found {
			t.Errorf("Available() = %v, want sse on amd64", av)
		}
	}
	cur := Active()
	ok := false
	for _, v := range av {
		if v == cur {
			ok = true
		}
	}
	if !ok {
		t.Errorf("Active() = %q not in Available() %v", cur, av)
	}
	if err := ForceVariant("neon"); err == nil {
		t.Error("ForceVariant of an unsupported variant did not error")
	}
	if Active() != cur {
		t.Errorf("failed ForceVariant changed Active to %q", Active())
	}
}

// TestVariantsActuallyDiffer: when an FMA tier and a non-FMA tier are
// both available, their outputs must differ in bits on multi-binade
// data — if they did not, per-variant provenance would be vacuous (and
// the avx2 kernel would not actually be fusing).
func TestVariantsActuallyDiffer(t *testing.T) {
	hasAVX2 := false
	for _, v := range Available() {
		if v == VariantAVX2 {
			hasAVX2 = true
		}
	}
	if !hasAVX2 {
		t.Skip("avx2 tier not available on this host")
	}
	rows, in, out := 16, 256, 16
	rng := tensor.NewRNG(0xBEEF)
	x := make([]float32, rows*in)
	w := make([]float32, out*in)
	fillMixed(x, rng)
	fillMixed(w, rng)
	prev := Active()
	defer func() { _ = ForceVariant(prev) }()
	res := map[Variant][]float32{}
	for _, v := range []Variant{VariantSSE, VariantAVX2} {
		if err := ForceVariant(v); err != nil {
			t.Fatal(err)
		}
		y := make([]float32, rows*out)
		gemmPacked(PackTInto, make([]float32, PanelFloats(in, out)), y, x, w, rows, in, out, Opt{})
		res[v] = y
	}
	if bitsEqual(res[VariantSSE], res[VariantAVX2]) {
		t.Error("sse and avx2 outputs are byte-identical on multi-binade data; the avx2 tier is not fusing")
	}
}

// TestFmaRefExactlyRounded pins the fused scalar oracle against
// arbitrary-precision arithmetic: fmaRef(a,b,c) must equal the
// round-to-nearest-even float32 of the exact value a·b + c.
func TestFmaRefExactlyRounded(t *testing.T) {
	check := func(a, b, c float32) {
		t.Helper()
		got := fmaRef(a, b, c)
		// 500 bits of precision make the product and sum exact for any
		// float32 inputs (48-bit product, exponent spread < 300).
		pa := new(big.Float).SetPrec(500).SetFloat64(float64(a))
		pb := new(big.Float).SetPrec(500).SetFloat64(float64(b))
		pc := new(big.Float).SetPrec(500).SetFloat64(float64(c))
		exact := new(big.Float).SetPrec(500).Mul(pa, pb)
		exact.Add(exact, pc)
		want, _ := exact.Float32()
		if math.Float32bits(got) != math.Float32bits(want) &&
			!(math.IsNaN(float64(got)) && math.IsNaN(float64(want))) {
			t.Errorf("fmaRef(%g, %g, %g) = %x (%g), want %x (%g)",
				a, b, c, math.Float32bits(got), got, math.Float32bits(want), want)
		}
	}
	rng := tensor.NewRNG(0xFA)
	buf := make([]float32, 3*5000)
	fillMixed(buf, rng)
	for i := 0; i+2 < len(buf); i += 3 {
		check(buf[i], buf[i+1], buf[i+2])
	}
	// Adversarial corners: double-rounding halfway cases (products just
	// past the 24-bit boundary cancelling against a near-equal addend),
	// denormals, signed zero, huge/tiny mixes.
	one := float32(1)
	ulp := float32(math.Float32frombits(math.Float32bits(one) + 1)) // 1 + 2^-23
	cases := [][3]float32{
		{ulp, ulp, -1},               // product 1+2^-22+2^-46: tail beyond 24 bits
		{ulp, -ulp, 1},               // negative mirror
		{1 + 2048*ulp/2048, ulp, -1}, // near-cancellation
		{3e38, 3e38, -3e38},          // product overflows float32, fine in float64
		{1e-38, 1e-38, 1e-20},        // product is sub-subnormal sticky
		{1e-38, 1e-38, 0},            // underflow to zero
		{math.Float32frombits(1), math.Float32frombits(1), math.Float32frombits(1)}, // denormal soup
		{0, 3, 0}, {0, -3, 0}, // signed-zero products
		{float32(math.Inf(1)), 1, -1}, // Inf propagation
		{float32(math.Inf(1)), 0, 1},  // Inf·0 = NaN
	}
	for _, cs := range cases {
		a, b, c := cs[0], cs[1], cs[2]
		if math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) || math.IsInf(float64(c), 0) {
			// big.Float has no Inf/NaN semantics; check against float64
			// FMA instead (exact for these: no rounding subtleties).
			got := fmaRef(a, b, c)
			want := float32(math.FMA(float64(a), float64(b), float64(c)))
			if math.Float32bits(got) != math.Float32bits(want) &&
				!(math.IsNaN(float64(got)) && math.IsNaN(float64(want))) {
				t.Errorf("fmaRef(%g, %g, %g) = %g, want %g", a, b, c, got, want)
			}
			continue
		}
		check(a, b, c)
	}
	// A dense sweep around exact powers of two, where round-to-nearest
	// ties and mantissa parity matter most.
	for i := -3; i <= 3; i++ {
		base := float32(math.Ldexp(1, i))
		for db := uint32(0); db < 8; db++ {
			for dc := uint32(0); dc < 8; dc++ {
				b := math.Float32frombits(math.Float32bits(base) + db)
				c := math.Float32frombits(math.Float32bits(base) + dc)
				check(b, c, -base)
				check(b, -c, base*base)
			}
		}
	}
}
