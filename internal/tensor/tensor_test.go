package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 || x.Rank() != 3 || x.Shape[1] != 3 {
		t.Fatalf("bad tensor: len=%d rank=%d dim1=%d", x.Len(), x.Rank(), x.Shape[1])
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestAtSetRowMajor(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if x.Data[5] != 7 {
		t.Errorf("Set(1,2) wrote to wrong offset: %v", x.Data)
	}
	if x.At(1, 2) != 7 {
		t.Errorf("At(1,2) = %v, want 7", x.At(1, 2))
	}
}

func TestAtPanicsOutOfBounds(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Error("expected panic for out-of-bounds index")
		} else if want := "tensor: index [2 0] out of bounds for shape [2 2]"; r != want {
			t.Errorf("panic = %q, want %q", r, want)
		}
	}()
	New(2, 2).At(2, 0)
}

// TestAtSetAllocateNothing checks that the variadic index of At and Set
// stays on the caller's stack.
func TestAtSetAllocateNothing(t *testing.T) {
	x := New(2, 3, 4, 5)
	var sum float32
	allocs := testing.AllocsPerRun(100, func() {
		x.Set(1.5, 1, 2, 3, 4)
		sum += x.At(1, 2, 3, 4)
	})
	if allocs != 0 {
		t.Errorf("Set+At allocate %.1f objects, want 0", allocs)
	}
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 1, 1, 1}, 4)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Error("Clone must copy data")
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for size mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestStatsBasics(t *testing.T) {
	x := FromSlice([]float32{-3, 1, 2, 0}, 4)
	if got := x.AbsMax(); got != 3 {
		t.Errorf("AbsMax = %v, want 3", got)
	}
	if got := x.Mean(); got != 0 {
		t.Errorf("Mean = %v, want 0", got)
	}
	if got := x.Variance(); math.Abs(got-3.5) > 1e-9 {
		t.Errorf("Variance = %v, want 3.5", got)
	}
}

func TestKurtosisDetectsOutliers(t *testing.T) {
	r := NewRNG(1)
	normal := New(10000)
	normal.FillNormal(r, 0, 1)
	spiky := normal.Clone()
	spiky.InjectOutliers(r, 0.01, 8, 12)
	if spiky.Kurtosis() <= normal.Kurtosis()+1 {
		t.Errorf("outlier tensor kurtosis %v should exceed normal %v",
			spiky.Kurtosis(), normal.Kurtosis())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds should diverge")
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(7)
	n := 100000
	var s, s2 float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		s += v
		s2 += v * v
	}
	mean := s / float64(n)
	variance := s2/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("norm variance = %v, want ~1", variance)
	}
}

func TestMSEAndMAE(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{1, 2, 5}
	if got := MSE(a, b); math.Abs(got-4.0/3) > 1e-9 {
		t.Errorf("MSE = %v", got)
	}
	if MSE(a, a) != 0 {
		t.Error("MSE(x,x) must be 0")
	}
}

func TestPercentile(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2},
	}
	for _, c := range cases {
		if got := Percentile(data, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestKLDivergence(t *testing.T) {
	p := []float64{0.5, 0.5}
	if got := KLDivergence(p, p); got != 0 {
		t.Errorf("KL(p||p) = %v, want 0", got)
	}
	q := []float64{0.9, 0.1}
	if KLDivergence(p, q) <= 0 {
		t.Error("KL(p||q) must be positive for p != q")
	}
}

// Property: KL divergence is non-negative for arbitrary distributions.
func TestKLNonNegative(t *testing.T) {
	prop := func(a, b, c, d float64) bool {
		p := normalize([]float64{math.Abs(a), math.Abs(b), math.Abs(c), math.Abs(d)})
		q := normalize([]float64{math.Abs(d), math.Abs(c), math.Abs(b), math.Abs(a)})
		if p == nil || q == nil {
			return true
		}
		return KLDivergence(p, q) >= -1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func normalize(v []float64) []float64 {
	s := 0.0
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil
		}
		s += x
	}
	if s == 0 {
		return nil
	}
	for i := range v {
		v[i] /= s
	}
	return v
}

func TestInjectOutliersFraction(t *testing.T) {
	x := New(10000)
	x.FillNormal(NewRNG(1), 0, 0.1)
	x.InjectOutliers(NewRNG(2), 0.01, 5, 6)
	count := 0
	for _, v := range x.Data {
		if math.Abs(float64(v)) >= 5 {
			count++
		}
	}
	if count < 50 || count > 150 {
		t.Errorf("outlier count = %d, want ~100", count)
	}
}
