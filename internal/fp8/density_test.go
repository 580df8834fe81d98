package fp8

import (
	"math"
	"testing"
	"testing/quick"
)

// TestDensityLaw checks Appendix A.1 Eq. 4: D = 2^(m - floor(log2 N)).
func TestDensityLaw(t *testing.T) {
	for _, f := range Formats {
		for _, n := range []float64{0.5, 1, 1.5, 2, 3, 4, 10, 16, 29} {
			want := math.Ldexp(1, int(f.ManBits)-int(math.Floor(math.Log2(n))))
			if got := f.Density(n); got != want {
				t.Errorf("%s Density(%v) = %v, want %v", f, n, got, want)
			}
		}
	}
}

// Property: density halves when magnitude doubles (within binades).
func TestDensityHalvesPerBinade(t *testing.T) {
	prop := func(e int8) bool {
		n := math.Ldexp(1, int(e%20))
		for _, f := range Formats {
			if f.Density(2*n) != f.Density(n)/2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: more mantissa bits => denser grid at the same magnitude.
func TestMoreMantissaDenser(t *testing.T) {
	for _, n := range []float64{0.1, 0.5, 1, 2, 8, 20} {
		if !(E3M4.Density(n) > E4M3.Density(n) && E4M3.Density(n) > E5M2.Density(n)) {
			t.Errorf("density ordering violated at n=%v: E3M4=%v E4M3=%v E5M2=%v",
				n, E3M4.Density(n), E4M3.Density(n), E5M2.Density(n))
		}
	}
}

// StepAt returns the grid spacing (quantization step) of the format at
// magnitude n: the reciprocal of Density in the normal range, clamped
// to the subnormal step below MinNormal. It is the error-bound oracle
// of the quantization property tests.
func (f Format) StepAt(n float64) float64 {
	n = math.Abs(n)
	if n < f.MinNormal() {
		return f.MinSubnormal()
	}
	if n > f.MaxValue() {
		n = f.MaxValue()
	}
	return 1 / f.Density(n)
}

// TestStepMatchesGrid verifies StepAt agrees with actual adjacent grid
// point spacing in the normal range.
func TestStepMatchesGrid(t *testing.T) {
	for _, f := range Formats {
		pts := f.GridPoints()
		for i := 2; i < len(pts)-1; i++ {
			lo, hi := pts[i], pts[i+1]
			if lo < f.MinNormal() {
				continue
			}
			mid := (lo + hi) / 2
			if got := f.StepAt(mid); math.Abs(got-(hi-lo)) > 1e-12*hi {
				t.Errorf("%s StepAt(%v) = %v, grid spacing %v", f, mid, got, hi-lo)
			}
		}
	}
}

// TestFP8VsInt8DensityNearZero quantifies Figure 1's center panel: FP8
// formats concentrate far more grid points inside the 3-sigma region of
// a standard-normal-ish tensor whose absmax is stretched by outliers.
func TestFP8VsInt8DensityNearZero(t *testing.T) {
	const absmax = 6.0 // outliers at ±6
	const sigma3 = 2.1 // 3σ for σ²=0.5
	int8In := 0
	for _, p := range Int8GridPoints(absmax) {
		if p <= sigma3 {
			int8In++
		}
	}
	for _, f := range []Format{E4M3, E3M4} {
		scale := f.MaxValue() / absmax
		fp8In := 0
		for _, p := range f.GridPoints() {
			if p/scale <= sigma3 {
				fp8In++
			}
		}
		if fp8In <= int8In {
			t.Errorf("%s grid points in 3σ = %d, INT8 = %d: FP8 should dominate",
				f, fp8In, int8In)
		}
	}
}
