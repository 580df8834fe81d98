package nn

import (
	"testing"

	"fp8quant/internal/tensor"
)

// planLinearNet is the Linear-only benchmark chain (pure packed-GEMM
// path, no conv scratch).
func planLinearNet() *Sequential {
	r := tensor.NewRNG(0xBEAC5)
	fc1 := NewLinear(256, 512)
	fc1.W.FillNormal(r, 0, 0.05)
	fc2 := NewLinear(512, 256)
	fc2.W.FillNormal(r, 0, 0.05)
	fc3 := NewLinear(256, 64)
	fc3.W.FillNormal(r, 0, 0.05)
	return NewSequential(fc1, GELU{}, fc2, ReLU{}, fc3)
}

// forwardBenchCases pairs a module with its input; "batch8" is the
// batched-forward variant (8 inputs stacked, folding into the GEMM M
// dimension).
func forwardBenchCases() []struct {
	name string
	m    Module
	x    *tensor.Tensor
} {
	r := tensor.NewRNG(0x5EED)
	lin := tensor.New(16, 256)
	lin.FillNormal(r, 0, 1)
	return []struct {
		name string
		m    Module
		x    *tensor.Tensor
	}{
		{"linear", planLinearNet(), lin},
		{"conv", planTestNet(), planTestInput(4, 3)},
		{"conv_batch8", planTestNet(), planTestInput(8, 4)},
	}
}

// BenchmarkForwardUnplanned is the heap-allocating baseline forward.
func BenchmarkForwardUnplanned(b *testing.B) {
	for _, c := range forwardBenchCases() {
		b.Run(c.name, func(b *testing.B) {
			c.m.Forward(nil, c.x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.m.Forward(nil, c.x)
			}
		})
	}
}

// BenchmarkForwardPlanned runs the same forwards through a compiled
// plan; steady state must report 0 allocs/op (gated by bench-gate).
func BenchmarkForwardPlanned(b *testing.B) {
	for _, c := range forwardBenchCases() {
		b.Run(c.name, func(b *testing.B) {
			p := Compile(c.m, c.x.Shape...)
			p.Forward(c.x) // slabs grow lazily; one more run reaches steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Forward(c.x)
			}
		})
	}
}
