package fp8

import (
	"math"
	"testing"
	"testing/quick"
)

func TestInt8SymmetricBasics(t *testing.T) {
	q := NewInt8Symmetric(127)
	if q.Scale != 1 {
		t.Fatalf("scale = %v, want 1", q.Scale)
	}
	for _, c := range []struct {
		in   float64
		want float64
	}{{0, 0}, {1, 1}, {-1, -1}, {126.4, 126}, {127.6, 127}, {200, 127}, {-200, -127}} {
		if got := q.Quantize(c.in); got != c.want {
			t.Errorf("Quantize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestInt8SymmetricNaN pins NaN to code 0 on every architecture (a
// bare int8(NaN) conversion is implementation-dependent).
func TestInt8SymmetricNaN(t *testing.T) {
	q := NewInt8Symmetric(10)
	if c := q.Encode(math.NaN()); c != 0 {
		t.Errorf("Encode(NaN) = %d, want 0", c)
	}
	if c := (Int8Symmetric{Scale: math.Inf(1)}).Encode(math.Inf(-1)); c != 0 {
		t.Errorf("Encode(-Inf/Inf) = %d, want 0", c)
	}
}

// TestInt8AsymmetricNaN pins NaN to code 0 on every architecture.
func TestInt8AsymmetricNaN(t *testing.T) {
	q := NewInt8Asymmetric(-1, 3)
	if c := q.Encode(math.NaN()); c != 0 {
		t.Errorf("Encode(NaN) = %d, want 0", c)
	}
	if c := (Int8Asymmetric{Scale: math.Inf(1), ZeroPoint: 64}).Encode(math.Inf(1)); c != 0 {
		t.Errorf("Encode(Inf/Inf) = %d, want 0", c)
	}
}

func TestInt8SymmetricDegenerate(t *testing.T) {
	for _, absmax := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		q := NewInt8Symmetric(absmax)
		if q.Scale != 1 {
			t.Errorf("NewInt8Symmetric(%v).Scale = %v, want 1", absmax, q.Scale)
		}
	}
}

// Property: symmetric INT8 error within range is bounded by scale/2.
func TestInt8ErrorBound(t *testing.T) {
	prop := func(x float64, absmax float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(absmax) {
			return true
		}
		absmax = math.Abs(absmax)
		if absmax == 0 || absmax > 1e30 {
			return true
		}
		q := NewInt8Symmetric(absmax)
		if math.Abs(x) > absmax {
			return true // clipping regime
		}
		return math.Abs(q.Quantize(x)-x) <= q.Scale/2+1e-12*absmax
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: INT8 quantization is monotone.
func TestInt8Monotone(t *testing.T) {
	q := NewInt8Symmetric(10)
	prop := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return q.Quantize(a) <= q.Quantize(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestInt8Asymmetric(t *testing.T) {
	q := NewInt8Asymmetric(-1, 3)
	if q.Scale <= 0 {
		t.Fatalf("scale = %v", q.Scale)
	}
	// Zero must be exactly representable (requirement for zero-padding
	// correctness in conv layers).
	if got := q.Quantize(0); math.Abs(got) > 1e-9 {
		t.Errorf("Quantize(0) = %v, want ~0", got)
	}
	for _, x := range []float64{-1, -0.5, 0, 0.7, 1.5, 3} {
		got := q.Quantize(x)
		if math.Abs(got-x) > q.Scale/2+1e-12 {
			t.Errorf("Quantize(%v) = %v, err > scale/2", x, got)
		}
	}
	// Out-of-range clamps.
	if got := q.Quantize(100); got > 3+q.Scale {
		t.Errorf("Quantize(100) = %v, should clamp near 3", got)
	}
	if got := q.Quantize(-100); got < -1-q.Scale {
		t.Errorf("Quantize(-100) = %v, should clamp near -1", got)
	}
}

func TestInt8AsymmetricRangeAdjustment(t *testing.T) {
	// All-positive range still includes zero.
	q := NewInt8Asymmetric(2, 5)
	if got := q.Quantize(0); math.Abs(got) > 1e-9 {
		t.Errorf("positive-range Quantize(0) = %v, want 0", got)
	}
	// All-negative range.
	q = NewInt8Asymmetric(-5, -2)
	if got := q.Quantize(0); math.Abs(got) > 1e-9 {
		t.Errorf("negative-range Quantize(0) = %v, want 0", got)
	}
}

func TestInt8GridUniform(t *testing.T) {
	pts := Int8GridPoints(127)
	if len(pts) != 128 {
		t.Fatalf("%d grid points, want 128", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if math.Abs((pts[i]-pts[i-1])-1) > 1e-12 {
			t.Errorf("non-uniform INT8 grid at %d", i)
		}
	}
}

// TestOutlierStretchesInt8Grid demonstrates Section 2's argument: one
// large outlier stretches the INT8 grid, while FP8's log-spaced grid
// keeps dense coverage near zero.
func TestOutlierStretchesInt8Grid(t *testing.T) {
	clean := NewInt8Symmetric(1).Scale
	stretched := NewInt8Symmetric(10).Scale
	if stretched <= clean*9 {
		t.Errorf("INT8 step should stretch ~10x with 10x absmax: %v vs %v",
			stretched, clean)
	}
	// FP8's relative step near 0.1 grows at most one binade (2x) when
	// the per-tensor scale absorbs a 10x outlier, versus INT8's exact
	// 10x stretch: the log-spaced grid keeps near-zero precision.
	for _, f := range []Format{E4M3, E3M4} {
		s1 := f.MaxValue() / 1
		s10 := f.MaxValue() / 10
		step1 := f.StepAt(0.1*s1) / s1
		step10 := f.StepAt(0.1*s10) / s10
		if step10 > step1*2.01 {
			t.Errorf("%s: step at 0.1 grew from %v to %v (>2x) with outlier", f, step1, step10)
		}
	}
}
