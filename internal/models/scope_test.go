package models

import (
	"math"
	"testing"

	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// roundHook is a quant.Input stand-in that rounds to eighths, so every
// quantizable op carves a quantized input copy, as in a quantized cell.
func roundHook(dst, src []float32) {
	for i, v := range src {
		dst[i] = float32(int(v*8)) / 8
	}
}

// TestBlocksLeaveOnlyOutput pins the block half of the scope rule: a
// block that builds one tensor from many children (DenseNet's running
// concatenation, Inception's branches, a convBN's conv, norm and
// activation) leaves only its output carved, FP32 and with quant hooks
// installed, and computes the unplanned bits. Releasing to the mark
// taken before the forward and carving the output's shape again must
// reach the mark the forward left.
func TestBlocksLeaveOnlyOutput(t *testing.T) {
	r := tensor.NewRNG(0x5C0BE)
	dense, _ := newDenseBlock(r, 8, 6, 3)
	blocks := []struct {
		name string
		m    nn.Module
	}{
		{"denseBlock", dense},
		{"inceptionBlock", newInceptionBlock(r, 8)},
		{"convBN", newConvBN(r, 8, 12, 3, 2, 1, 1, nn.SiLU{})},
		{"convBN/linear", newConvBN(r, 8, 8, 3, 1, 1, 8, nil)},
	}
	x := tensor.New(2, 8, 6, 6)
	x.FillNormal(tensor.NewRNG(7), 0, 1)
	for _, quantized := range []bool{false, true} {
		for _, b := range blocks {
			if quantized {
				nn.Walk(b.m, func(_ string, m nn.Module) {
					if q, ok := m.(nn.Quantizable); ok {
						q.Q().Input = roundHook
					}
				})
			}
			want := b.m.Forward(nil, x)
			var a tensor.Arena
			a.New(7) // a live tensor before the block, as under a Sequential
			before := a.Mark()
			y := b.m.Forward(&a, x)
			after := a.Mark()
			for i := range want.Data {
				if math.Float32bits(y.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s (quantized %v): planned output differs at %d", b.name, quantized, i)
				}
			}
			a.Release(before)
			a.New(y.Shape...)
			if again := a.Mark(); again != after {
				t.Errorf("%s (quantized %v): the forward left more than its %v output carved (mark %v, its output alone %v)",
					b.name, quantized, y.Shape, after, again)
			}
		}
	}
}
