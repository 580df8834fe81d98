package fp8

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTable1Constants(t *testing.T) {
	cases := []struct {
		f            Format
		bias         int
		max          float64
		minSubnormal float64
		hasInf       bool
	}{
		{E5M2, 15, 57344.0, math.Ldexp(1, -16), true},
		{E4M3, 7, 448.0, math.Ldexp(1, -9), false},
		{E3M4, 3, 30.0, math.Ldexp(1, -6), false},
	}
	for _, c := range cases {
		if c.f.Bias != c.bias {
			t.Errorf("%s bias = %d, want %d", c.f, c.f.Bias, c.bias)
		}
		if got := c.f.MaxValue(); got != c.max {
			t.Errorf("%s max = %v, want %v", c.f, got, c.max)
		}
		if got := c.f.MinSubnormal(); got != c.minSubnormal {
			t.Errorf("%s min subnormal = %v, want %v", c.f, got, c.minSubnormal)
		}
		if got := c.f.HasInf(); got != c.hasInf {
			t.Errorf("%s hasInf = %v, want %v", c.f, got, c.hasInf)
		}
	}
	// Paper Table 1 quotes approximate min values; check within 5%.
	approx := []struct {
		f   Format
		min float64
	}{{E5M2, 1.5e-5}, {E4M3, 1.9e-3}, {E3M4, 1.5e-2}}
	for _, c := range approx {
		got := c.f.MinSubnormal()
		if math.Abs(got-c.min)/c.min > 0.05 {
			t.Errorf("%s min subnormal = %v, want approx %v", c.f, got, c.min)
		}
	}
}

// TestRoundTripAllCodes checks Decode->Encode is the identity on every
// finite code point of every format (up to ±0 sign preservation).
func TestRoundTripAllCodes(t *testing.T) {
	for _, f := range Formats {
		for b := 0; b < 256; b++ {
			c := uint8(b)
			v := f.Decode(c)
			if math.IsNaN(v) {
				if !f.IsNaN(f.Encode(v)) {
					t.Errorf("%s code %#02x: NaN did not re-encode to NaN", f, c)
				}
				continue
			}
			got := f.Encode(v)
			if got != c {
				// -0 encodes back to 0x80; +0 to 0x00; both decode to 0.
				if v == 0 && got&0x7F == 0 && c&0x7F == 0 {
					continue
				}
				t.Errorf("%s code %#02x (val %v): re-encoded to %#02x", f, c, v, got)
			}
		}
	}
}

// TestEncodeNearest verifies Encode picks the closest grid point by
// brute force over the full code space.
func TestEncodeNearest(t *testing.T) {
	inputs := []float64{0, 1e-9, 1e-6, 0.001, 0.017, 0.3, 0.5, 0.75, 1,
		1.1, 2.5, 3.14159, 7.7, 29, 31, 100, 447, 449, 1000, 57000, 60000,
		-0.3, -2.5, -448, -1e5}
	for _, f := range Formats {
		for _, x := range inputs {
			got := f.Decode(f.Encode(x))
			if math.IsInf(got, 0) {
				if math.Abs(x) <= f.MaxValue() {
					t.Errorf("%s Encode(%v) overflowed to Inf", f, x)
				}
				continue
			}
			best := math.Inf(1)
			for b := 0; b < 256; b++ {
				v := f.Decode(uint8(b))
				if math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				// Saturating behaviour: clamp target into range.
				xc := x
				if xc > f.MaxValue() {
					xc = f.MaxValue()
				}
				if xc < -f.MaxValue() {
					xc = -f.MaxValue()
				}
				if d := math.Abs(v - xc); d < best {
					best = d
				}
			}
			xc := x
			if xc > f.MaxValue() {
				xc = f.MaxValue()
			}
			if xc < -f.MaxValue() {
				xc = -f.MaxValue()
			}
			if d := math.Abs(got - xc); d > best+1e-12 {
				t.Errorf("%s Quantize(%v) = %v (err %v), nearest grid err %v",
					f, x, got, d, best)
			}
		}
	}
}

func TestSpecialValues(t *testing.T) {
	for _, f := range Formats {
		if !math.IsNaN(f.Decode(f.Encode(math.NaN()))) {
			t.Errorf("%s: NaN not preserved", f)
		}
		inf := f.Decode(f.Encode(math.Inf(1)))
		if f.HasInf() {
			if !math.IsInf(inf, 1) {
				t.Errorf("%s: +Inf should stay Inf, got %v", f, inf)
			}
		} else if inf != f.MaxValue() {
			t.Errorf("%s: +Inf should saturate to %v, got %v", f, f.MaxValue(), inf)
		}
		ninf := f.Decode(f.Encode(math.Inf(-1)))
		if f.HasInf() {
			if !math.IsInf(ninf, -1) {
				t.Errorf("%s: -Inf should stay -Inf, got %v", f, ninf)
			}
		} else if ninf != -f.MaxValue() {
			t.Errorf("%s: -Inf should saturate to %v, got %v", f, -f.MaxValue(), ninf)
		}
		if f.Decode(f.Encode(0)) != 0 {
			t.Errorf("%s: zero not preserved", f)
		}
	}
}

func TestSaturation(t *testing.T) {
	// Extended formats saturate; E5M2 overflows to Inf well past max.
	if got := E4M3.Quantize(1e6); got != 448 {
		t.Errorf("E4M3.Quantize(1e6) = %v, want 448", got)
	}
	if got := E3M4.Quantize(-1e6); got != -30 {
		t.Errorf("E3M4.Quantize(-1e6) = %v, want -30", got)
	}
	if got := E5M2.Quantize(1e9); !math.IsInf(got, 1) {
		t.Errorf("E5M2.Quantize(1e9) = %v, want +Inf", got)
	}
	// Just above max but below the rounding midpoint stays at max.
	if got := E5M2.Quantize(57345); got != 57344 {
		t.Errorf("E5M2.Quantize(57345) = %v, want 57344", got)
	}
}

func TestSubnormalBoundary(t *testing.T) {
	for _, f := range Formats {
		mn := f.MinNormal()
		ms := f.MinSubnormal()
		if got := f.Quantize(mn); got != mn {
			t.Errorf("%s: min normal %v quantized to %v", f, mn, got)
		}
		if got := f.Quantize(ms); got != ms {
			t.Errorf("%s: min subnormal %v quantized to %v", f, ms, got)
		}
		// Halfway between 0 and min subnormal rounds to even (0).
		if got := f.Quantize(ms / 2); got != 0 {
			t.Errorf("%s: ms/2 = %v quantized to %v, want 0", f, ms/2, got)
		}
		// Slightly above halfway rounds up.
		if got := f.Quantize(ms * 0.51); got != ms {
			t.Errorf("%s: 0.51*ms quantized to %v, want %v", f, got, ms)
		}
	}
}

func TestRoundHalfEven(t *testing.T) {
	// 1 + 2^-m steps: value exactly between two grid points must round
	// to the even mantissa.
	for _, f := range Formats {
		step := 1.0 / float64(int64(1)<<f.ManBits)
		// Between 1.0 (mantissa 0, even) and 1+step (mantissa 1, odd):
		if got := f.Quantize(1 + step/2); got != 1 {
			t.Errorf("%s: tie at 1+step/2 = %v, want 1", f, got)
		}
		// Between 1+step and 1+2*step (mantissa 2, even):
		if got := f.Quantize(1 + step*1.5); got != 1+2*step {
			t.Errorf("%s: tie at 1+1.5step = %v, want %v", f, got, 1+2*step)
		}
	}
}

func TestNaNEncodingUniqueness(t *testing.T) {
	// Extended formats: exactly two NaN codes (0x7F, 0xFF).
	for _, f := range []Format{E4M3, E3M4} {
		count := 0
		for b := 0; b < 256; b++ {
			if f.IsNaN(uint8(b)) {
				count++
			}
		}
		if count != 2 {
			t.Errorf("%s: %d NaN encodings, want 2 (±all-ones)", f, count)
		}
	}
	// E5M2: IEEE — 3 NaN mantissa patterns per sign = 6.
	count := 0
	for b := 0; b < 256; b++ {
		if E5M2.IsNaN(uint8(b)) {
			count++
		}
	}
	if count != 6 {
		t.Errorf("E5M2: %d NaN encodings, want 6", count)
	}
}

func TestGridPoints(t *testing.T) {
	for _, f := range Formats {
		pts := f.GridPoints()
		want := 127 // 128 non-negative codes minus the single NaN
		if f.IEEE {
			want = 124 // minus the Inf code and 3 NaN codes
		}
		if len(pts) != want {
			t.Errorf("%s: %d grid points, want %d", f, len(pts), want)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i] <= pts[i-1] {
				t.Errorf("%s: grid not strictly increasing at %d: %v <= %v",
					f, i, pts[i], pts[i-1])
			}
		}
		if pts[0] != 0 {
			t.Errorf("%s: first grid point %v, want 0", f, pts[0])
		}
		if pts[len(pts)-1] != f.MaxValue() {
			t.Errorf("%s: last grid point %v, want %v", f, pts[len(pts)-1], f.MaxValue())
		}
	}
}

// Property: quantization is idempotent — Quantize(Quantize(x)) ==
// Quantize(x) for all finite x.
func TestQuantizeIdempotent(t *testing.T) {
	for _, f := range Formats {
		f := f
		prop := func(x float64) bool {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			y := f.Quantize(x)
			if math.IsInf(y, 0) {
				return f.IEEE
			}
			return f.Quantize(y) == y
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// Property: quantization is monotone — x <= y implies Q(x) <= Q(y).
func TestQuantizeMonotone(t *testing.T) {
	for _, f := range Formats {
		f := f
		prop := func(a, b float64) bool {
			if math.IsNaN(a) || math.IsNaN(b) {
				return true
			}
			x, y := a, b
			if x > y {
				x, y = y, x
			}
			qx, qy := f.Quantize(x), f.Quantize(y)
			return qx <= qy || math.IsInf(qx, -1)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// Property: quantization error is bounded by half the local step size.
func TestQuantizeErrorBound(t *testing.T) {
	for _, f := range Formats {
		f := f
		prop := func(x float64) bool {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			if math.Abs(x) > f.MaxValue() {
				return true // saturation regime
			}
			q := f.Quantize(x)
			step := f.StepAt(x)
			return math.Abs(q-x) <= step/2+1e-15
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

func TestQuantizeSlice(t *testing.T) {
	src := []float32{0, 0.1, -0.5, 3.2, 500, -500}
	dst := make([]float32, len(src))
	E4M3.Codec().QuantizeSlice(dst, src)
	for i, v := range src {
		want := float32(E4M3.Quantize(float64(v)))
		if dst[i] != want {
			t.Errorf("QuantizeSlice[%d] = %v, want %v", i, dst[i], want)
		}
	}
	// In-place aliasing works.
	cp := append([]float32(nil), src...)
	E4M3.Codec().QuantizeSlice(cp, cp)
	for i := range cp {
		if cp[i] != dst[i] {
			t.Errorf("in-place QuantizeSlice[%d] = %v, want %v", i, cp[i], dst[i])
		}
	}
}
