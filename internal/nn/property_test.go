package nn

import (
	"math"
	"testing"
	"testing/quick"

	"fp8quant/internal/tensor"
)

// Property: Linear is linear — f(a*x) == a*f(x) when bias is zero.
func TestLinearHomogeneity(t *testing.T) {
	l := NewLinear(4, 3)
	l.W.FillNormal(tensor.NewRNG(1), 0, 1)
	l.B = nil
	prop := func(a float32, v0, v1, v2, v3 float32) bool {
		if bad(a) || bad(v0) || bad(v1) || bad(v2) || bad(v3) || math.Abs(float64(a)) > 1e3 {
			return true
		}
		x := tensor.FromSlice([]float32{v0, v1, v2, v3}, 1, 4)
		y1 := l.Forward(nil, x)
		xs := x.Clone()
		xs.Scale(a)
		y2 := l.Forward(nil, xs)
		for i := range y1.Data {
			want := float64(y1.Data[i]) * float64(a)
			if math.Abs(float64(y2.Data[i])-want) > 1e-2*(math.Abs(want)+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Linear is additive — f(x+y) == f(x)+f(y) with zero bias.
func TestLinearAdditivity(t *testing.T) {
	l := NewLinear(3, 2)
	l.W.FillNormal(tensor.NewRNG(2), 0, 1)
	l.B = nil
	prop := func(a0, a1, a2, b0, b1, b2 float32) bool {
		for _, v := range []float32{a0, a1, a2, b0, b1, b2} {
			if bad(v) || math.Abs(float64(v)) > 1e3 {
				return true
			}
		}
		xa := tensor.FromSlice([]float32{a0, a1, a2}, 1, 3)
		xb := tensor.FromSlice([]float32{b0, b1, b2}, 1, 3)
		xs := tensor.FromSlice([]float32{a0 + b0, a1 + b1, a2 + b2}, 1, 3)
		ya, yb, ys := l.Forward(nil, xa), l.Forward(nil, xb), l.Forward(nil, xs)
		for i := range ys.Data {
			want := float64(ya.Data[i]) + float64(yb.Data[i])
			if math.Abs(float64(ys.Data[i])-want) > 1e-2*(math.Abs(want)+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: LayerNorm output is invariant to input shift and scale.
func TestLayerNormInvariance(t *testing.T) {
	ln := NewLayerNorm(6)
	r := tensor.NewRNG(3)
	prop := func(shift float32, scaleSeed uint8) bool {
		if bad(shift) || math.Abs(float64(shift)) > 1e3 {
			return true
		}
		scale := float32(1 + int(scaleSeed%50))
		x := tensor.New(1, 6)
		x.FillNormal(r, 0, 1)
		y1 := ln.Forward(nil, x)
		x2 := x.Clone()
		for i := range x2.Data {
			x2.Data[i] = x2.Data[i]*scale + shift
		}
		y2 := ln.Forward(nil, x2)
		for i := range y1.Data {
			if math.Abs(float64(y1.Data[i]-y2.Data[i])) > 1e-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: softmax rows are probability vectors for any logits.
func TestSoftmaxSimplex(t *testing.T) {
	prop := func(a, b, c, d float32) bool {
		for _, v := range []float32{a, b, c, d} {
			if bad(v) {
				return true
			}
		}
		x := tensor.FromSlice([]float32{a, b, c, d}, 1, 4)
		y := (Softmax{}).Forward(nil, x)
		sum := 0.0
		for _, v := range y.Data {
			if v < 0 || bad(v) {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-5
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: ReLU is idempotent and monotone.
func TestReLUProperties(t *testing.T) {
	var relu ReLU
	prop := func(a, b float32) bool {
		if bad(a) || bad(b) {
			return true
		}
		x := tensor.FromSlice([]float32{a, b}, 2)
		y := relu.Forward(nil, x)
		yy := relu.Forward(nil, y)
		if yy.Data[0] != y.Data[0] || yy.Data[1] != y.Data[1] {
			return false
		}
		if a <= b && y.Data[0] > y.Data[1] {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: BatchNorm with identity affine params and matching stats is
// a whitening map: output mean ~0, var ~1 per channel when stats are
// estimated from the same data.
func TestBatchNormWhitens(t *testing.T) {
	bn := NewBatchNorm2d(2)
	r := tensor.NewRNG(4)
	x := tensor.New(4, 2, 6, 6)
	x.FillNormal(r, 3, 2)
	bn.startCalibration(make([]float64, 4))
	bn.Forward(nil, x)
	bn.finishCalibration()
	y := bn.Forward(nil, x)
	for c := 0; c < 2; c++ {
		var s, s2 float64
		n := 0
		for ni := 0; ni < 4; ni++ {
			for i := 0; i < 36; i++ {
				v := float64(y.Data[(ni*2+c)*36+i])
				s += v
				s2 += v * v
				n++
			}
		}
		mean := s / float64(n)
		va := s2/float64(n) - mean*mean
		if math.Abs(mean) > 1e-3 || math.Abs(va-1) > 1e-2 {
			t.Errorf("channel %d: mean %v var %v after self-calibration", c, mean, va)
		}
	}
}

// Property: conv with a delta kernel shifts but preserves values.
func TestConvDeltaKernel(t *testing.T) {
	c := NewConv2d(1, 1, 3, 1, 1, 1)
	c.W.Set(1, 0, 0, 0, 0) // top-left tap: shifts image down-right
	x := tensor.New(1, 1, 5, 5)
	x.FillNormal(tensor.NewRNG(5), 0, 1)
	y := c.Forward(nil, x)
	for yy := 1; yy < 5; yy++ {
		for xx := 1; xx < 5; xx++ {
			if y.At(0, 0, yy, xx) != x.At(0, 0, yy-1, xx-1) {
				t.Fatalf("delta conv mismatch at %d,%d", yy, xx)
			}
		}
	}
}

func bad(v float32) bool {
	f := float64(v)
	return math.IsNaN(f) || math.IsInf(f, 0)
}
