package tensor

import (
	"strings"
	"testing"
)

func TestApplyScaleAddInto(t *testing.T) {
	x := FromSlice([]float32{1, -2, 3}, 3)
	x.Apply(func(v float32) float32 { return v * v })
	if x.Data[0] != 1 || x.Data[1] != 4 || x.Data[2] != 9 {
		t.Errorf("Apply: %v", x.Data)
	}
	x.Scale(2)
	if x.Data[2] != 18 {
		t.Errorf("Scale: %v", x.Data)
	}
}

func TestStringPreview(t *testing.T) {
	x := New(2, 3)
	s := x.String()
	if !strings.Contains(s, "[2 3]") {
		t.Errorf("String = %q", s)
	}
}

func TestFillAndZeroStats(t *testing.T) {
	x := FromSlice([]float32{2.5, 2.5, 2.5, 2.5}, 4)
	if x.Mean() != 2.5 || x.Variance() != 0 || x.Std() != 0 {
		t.Errorf("constant tensor stats: mean %v var %v", x.Mean(), x.Variance())
	}
	empty := &Tensor{Shape: []int{0}, Data: nil}
	if empty.Mean() != 0 || empty.Variance() != 0 || empty.Kurtosis() != 0 {
		t.Error("empty tensor stats must be zero")
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPercentileEmptyAndSingle(t *testing.T) {
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if Percentile([]float32{7}, 99) != 7 {
		t.Error("single-element percentile")
	}
}

func TestMSEMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MSE([]float32{1}, []float32{1, 2})
}
