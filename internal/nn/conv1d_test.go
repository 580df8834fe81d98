package nn

import (
	"testing"

	"fp8quant/internal/tensor"
)

func TestConv1dIdentity(t *testing.T) {
	c := NewConv1d(1, 1, 1, 1, 0)
	c.W.Data[0] = 1
	x := tensor.New(1, 1, 8)
	x.FillNormal(tensor.NewRNG(1), 0, 1)
	y := c.Forward(nil, x)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("identity conv1d mismatch")
		}
	}
}

func TestConv1dStride(t *testing.T) {
	c := NewConv1d(2, 4, 5, 4, 2)
	x := tensor.New(2, 2, 64)
	y := c.Forward(nil, x)
	if y.Shape[0] != 2 || y.Shape[1] != 4 || y.Shape[2] != c.OutSize(64) {
		t.Fatalf("shape %v", y.Shape)
	}
	if c.OutSize(64) != 16 {
		t.Errorf("OutSize(64) = %d, want 16", c.OutSize(64))
	}
}

func TestConv1dSumKernel(t *testing.T) {
	c := NewConv1d(1, 1, 3, 1, 0)
	c.W.Data[0], c.W.Data[1], c.W.Data[2] = 1, 1, 1
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 4)
	y := c.Forward(nil, x)
	want := []float32{6, 9}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Errorf("y[%d] = %v, want %v", i, y.Data[i], want[i])
		}
	}
}

func TestConv1dQuantHooks(t *testing.T) {
	c := NewConv1d(1, 1, 1, 1, 0)
	c.W.Data[0] = 2
	called := false
	c.QS.Observe = func([]float32) { called = true }
	x := tensor.New(1, 1, 4)
	fillOnes(x.Data)
	c.Forward(nil, x)
	if !called {
		t.Error("observer not invoked")
	}
	c.QS.Input = func(dst, src []float32) {
		for i := range dst {
			dst[i] = 0
		}
	}
	y := c.Forward(nil, x)
	if y.Data[0] != 0 {
		t.Error("input quant hook not applied")
	}
}

func TestConv1dParametricInterface(t *testing.T) {
	c := NewConv1d(2, 3, 3, 1, 1)
	var p Parametric = c
	if p.WeightTensor() != c.W || p.OutChannelDim() != 0 {
		t.Error("Parametric contract violated")
	}
	var q Quantizable = c
	if q.Q() != &c.QS {
		t.Error("Quantizable contract violated")
	}
}
