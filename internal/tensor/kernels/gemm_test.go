package kernels

import (
	"math"
	"runtime"
	"testing"

	"fp8quant/internal/tensor"
)

// maddFunc is one scalar multiply-accumulate step: the per-variant
// oracle differs only here.
type maddFunc func(acc, x, b float32) float32

// maddFor returns the scalar multiply-accumulate the variant is pinned
// to: two roundings (explicit product rounding, then the add) for the
// generic and sse tiers, the exactly-rounded fused multiply-add for
// the avx2 tier.
func maddFor(v Variant) maddFunc { return RefMadd(v) }

// packFunc is one of the panel layouts: PackTInto for a row-major
// [out, in] B (the Linear weight), PackNInto for a row-major [in, out]
// one.
type packFunc func(panel, b []float32, in, out int)

// gemmPacked packs b into a pooled panel and runs GemmPacked over it,
// the call sequence of every nn layer.
func gemmPacked(pack packFunc, y, x, b []float32, rows, in, out int, opt Opt) {
	panel := GetScratch(PanelFloats(in, out))
	defer PutScratch(panel)
	pack(*panel, b, in, out)
	GemmPacked(y, x, *panel, rows, in, out, opt)
}

// quantPack is the fused-quant form of a layout: b is quantized through
// q while it is packed.
func quantPack(pack func(panel, stage, b []float32, in, out int, q QuantFunc), q QuantFunc) packFunc {
	return func(panel, b []float32, in, out int) {
		pack(panel, make([]float32, QuantStageFloats(in, out)), b, in, out, q)
	}
}

// gemmTRef is the scalar oracle for a PackTInto GEMM: the exact naive
// loop the kernels must match bit for bit (single accumulator,
// ascending k, the variant's multiply-accumulate).
func gemmTRef(y, x, w []float32, rows, in, out int, opt Opt, madd maddFunc) {
	for r := 0; r < rows; r++ {
		for o := 0; o < out; o++ {
			var acc float32
			if opt.Prologue && opt.Bias != nil {
				acc = opt.Bias[o]
			}
			for k := 0; k < in; k++ {
				acc = madd(acc, x[r*in+k], w[o*in+k])
			}
			if !opt.Prologue && opt.Bias != nil {
				acc += opt.Bias[o]
			}
			y[r*out+o] = acc
		}
	}
}

// gemmNRef is the scalar oracle for a PackNInto GEMM (b row-major
// [in, out]).
func gemmNRef(y, x, b []float32, rows, in, out int, opt Opt, madd maddFunc) {
	for r := 0; r < rows; r++ {
		for o := 0; o < out; o++ {
			var acc float32
			if opt.Prologue && opt.Bias != nil {
				acc = opt.Bias[o]
			}
			for k := 0; k < in; k++ {
				acc = madd(acc, x[r*in+k], b[k*out+o])
			}
			if !opt.Prologue && opt.Bias != nil {
				acc += opt.Bias[o]
			}
			y[r*out+o] = acc
		}
	}
}

// fillMixed populates dst with values spanning several binades plus
// the occasional denormal-scale value so reassociated sums would not
// survive the bit comparison.
func fillMixed(dst []float32, rng *tensor.RNG) {
	for i := range dst {
		v := float32(rng.Norm())
		switch i % 7 {
		case 0:
			v *= 1e4
		case 3:
			v *= 1e-6
		case 5:
			v *= 1e-38
		}
		dst[i] = v
	}
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func firstDiff(t *testing.T, a, b []float32) {
	t.Helper()
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("first bit difference at %d: %x vs %x (%g vs %g)",
				i, math.Float32bits(a[i]), math.Float32bits(b[i]), a[i], b[i])
		}
	}
}

// gemmShapes exercises odd rows/cols, tile remainders in both
// dimensions (including every rows%8 remainder the avx2 tier blocks
// by), tiny and degenerate extents.
var gemmShapes = []struct{ rows, in, out int }{
	{1, 1, 1},
	{1, 7, 1},
	{3, 5, 2},
	{4, 16, 4},
	{5, 17, 9},
	{6, 10, 24},
	{7, 64, 31},
	{8, 33, 12},
	{13, 128, 65},
	{16, 256, 256},
	{2, 0, 3}, // empty reduction
	{31, 3, 130},
}

func TestGemmTMatchesOracleBitExact(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		madd := maddFor(v)
		rng := tensor.NewRNG(0x6E77)
		for _, s := range gemmShapes {
			x := make([]float32, s.rows*s.in)
			w := make([]float32, s.out*s.in)
			bias := make([]float32, s.out)
			fillMixed(x, rng)
			fillMixed(w, rng)
			fillMixed(bias, rng)
			for _, opt := range []Opt{
				{},
				{Bias: bias},
				{Bias: bias, Prologue: true},
				{Serial: true, Bias: bias},
			} {
				got := make([]float32, s.rows*s.out)
				want := make([]float32, s.rows*s.out)
				gemmPacked(PackTInto, got, x, w, s.rows, s.in, s.out, opt)
				gemmTRef(want, x, w, s.rows, s.in, s.out, opt, madd)
				if !bitsEqual(got, want) {
					t.Errorf("PackTInto GEMM %dx%dx%d opt=%+v diverges from oracle", s.rows, s.in, s.out, opt)
					firstDiff(t, got, want)
				}
			}
		}
	})
}

func TestGemmNMatchesOracleBitExact(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		madd := maddFor(v)
		rng := tensor.NewRNG(0x6E78)
		for _, s := range gemmShapes {
			x := make([]float32, s.rows*s.in)
			b := make([]float32, s.in*s.out)
			bias := make([]float32, s.out)
			fillMixed(x, rng)
			fillMixed(b, rng)
			fillMixed(bias, rng)
			for _, opt := range []Opt{
				{},
				{Bias: bias},
				{Bias: bias, Prologue: true},
				{Serial: true},
			} {
				got := make([]float32, s.rows*s.out)
				want := make([]float32, s.rows*s.out)
				gemmPacked(PackNInto, got, x, b, s.rows, s.in, s.out, opt)
				gemmNRef(want, x, b, s.rows, s.in, s.out, opt, madd)
				if !bitsEqual(got, want) {
					t.Errorf("PackNInto GEMM %dx%dx%d opt=%+v diverges from oracle", s.rows, s.in, s.out, opt)
					firstDiff(t, got, want)
				}
			}
		}
	})
}

// TestGemmSpecialValues pins the kernels to the oracle when the inputs
// contain Inf and NaN (quantized weights overflow to Inf in IEEE
// formats), including around the zero-padded panel tail.
func TestGemmSpecialValues(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		rows, in, out := 9, 9, 6 // out%nr != 0 exercises the padded lanes
		rng := tensor.NewRNG(0x1F)
		x := make([]float32, rows*in)
		w := make([]float32, out*in)
		fillMixed(x, rng)
		fillMixed(w, rng)
		inf := float32(math.Inf(1))
		nan := float32(math.NaN())
		w[0], w[in+3] = inf, -inf
		w[(out-1)*in+2] = nan
		x[2*in+1] = inf
		x[4*in+8] = nan
		got := make([]float32, rows*out)
		want := make([]float32, rows*out)
		gemmPacked(PackTInto, got, x, w, rows, in, out, Opt{})
		gemmTRef(want, x, w, rows, in, out, Opt{}, maddFor(v))
		if !bitsEqual(got, want) {
			firstDiff(t, got, want)
		}
	})
}

// TestGemmDeterministicAcrossWorkers proves any worker count (and so
// any chunking of the row range) yields identical bytes, for every
// variant.
func TestGemmDeterministicAcrossWorkers(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		rows, in, out := 37, 96, 53
		rng := tensor.NewRNG(0xD0)
		x := make([]float32, rows*in)
		w := make([]float32, out*in)
		fillMixed(x, rng)
		fillMixed(w, rng)

		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		runtime.GOMAXPROCS(1)
		ref := make([]float32, rows*out)
		gemmPacked(PackTInto, ref, x, w, rows, in, out, Opt{})

		for _, procs := range []int{2, 8} {
			runtime.GOMAXPROCS(procs)
			got := make([]float32, rows*out)
			gemmPacked(PackTInto, got, x, w, rows, in, out, Opt{})
			if !bitsEqual(got, ref) {
				t.Errorf("GOMAXPROCS=%d diverges from serial result", procs)
				firstDiff(t, got, ref)
			}
		}
	})
}

// TestGemmPackedMatchesGemmT proves the pack-once path (one PackTInto,
// GemmPacked per row block: the convolution and batched-matmul pattern)
// produces the oracle's bytes on every reuse of the panel.
func TestGemmPackedMatchesGemmT(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		rng := tensor.NewRNG(0x9AC)
		rows, in, out := 11, 45, 13
		x := make([]float32, rows*in)
		w := make([]float32, out*in)
		bias := make([]float32, out)
		fillMixed(x, rng)
		fillMixed(w, rng)
		fillMixed(bias, rng)
		opt := Opt{Bias: bias, Prologue: true}
		want := make([]float32, rows*out)
		gemmTRef(want, x, w, rows, in, out, opt, maddFor(v))
		panel := make([]float32, PanelFloats(in, out))
		PackTInto(panel, w, in, out)
		for i := 0; i < 2; i++ { // reuse the panel like a batch loop does
			got := make([]float32, rows*out)
			GemmPacked(got, x, panel, rows, in, out, opt)
			if !bitsEqual(got, want) {
				t.Errorf("GemmPacked pass %d diverges from the oracle", i)
				firstDiff(t, got, want)
			}
		}
	})
}

// TestNoFusedPinsTwoRounding proves Opt.NoFused yields the two-rounding
// oracle's bytes under every variant — including a fused active tier,
// where it must fall back to the best non-fused tier. This is the
// contract convolution relies on to stay bit-identical to its direct
// two-rounding loop under every tier.
func TestNoFusedPinsTwoRounding(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		madd := RefMadd(VariantGeneric) // two roundings, always
		rng := tensor.NewRNG(0x2F0)
		for _, s := range gemmShapes {
			x := make([]float32, s.rows*s.in)
			w := make([]float32, s.out*s.in)
			bias := make([]float32, s.out)
			fillMixed(x, rng)
			fillMixed(w, rng)
			fillMixed(bias, rng)
			opt := Opt{Bias: bias, Prologue: true, NoFused: true}
			got := make([]float32, s.rows*s.out)
			want := make([]float32, s.rows*s.out)
			gemmPacked(PackTInto, got, x, w, s.rows, s.in, s.out, opt)
			gemmTRef(want, x, w, s.rows, s.in, s.out, opt, madd)
			if !bitsEqual(got, want) {
				t.Errorf("NoFused PackTInto GEMM %dx%dx%d diverges from two-rounding oracle", s.rows, s.in, s.out)
				firstDiff(t, got, want)
			}
		}
	})
}

// TestGemmPackedInlineAllocatesNothing pins that a non-serial call too
// small to fan out (rows ≤ grain) runs inline without building the
// worker-pool closure, so it makes no heap allocation.
func TestGemmPackedInlineAllocatesNothing(t *testing.T) {
	rows, in, out := 8, 64, 64 // grain = minParallelOps/(in·out) = 8 rows
	rng := tensor.NewRNG(0xA11)
	x := make([]float32, rows*in)
	w := make([]float32, out*in)
	fillMixed(x, rng)
	fillMixed(w, rng)
	panel := make([]float32, PanelFloats(in, out))
	PackTInto(panel, w, in, out)
	y := make([]float32, rows*out)
	if a := testing.AllocsPerRun(100, func() {
		GemmPacked(y, x, panel, rows, in, out, Opt{})
	}); a != 0 {
		t.Fatalf("non-serial GemmPacked with rows <= grain: %v allocs/op, want 0", a)
	}
}

func TestScratchPoolReuse(t *testing.T) {
	p := GetScratch(128)
	if len(*p) != 128 {
		t.Fatalf("GetScratch(128) returned len %d", len(*p))
	}
	PutScratch(p)
	q := GetScratch(64)
	if len(*q) != 64 {
		t.Fatalf("GetScratch(64) returned len %d", len(*q))
	}
	PutScratch(q)
}
