package nn

import (
	"testing"

	"fp8quant/internal/tensor"
)

// requireLeavesOnlyOutput runs f, one planned op or block forward, on a
// fresh arena and checks it left exactly its output carved: releasing
// to the mark taken before f and carving the output's shape again must
// reach the mark f left. f must also return the bits it returns
// unplanned (f(nil)).
func requireLeavesOnlyOutput(t *testing.T, what string, f func(a *tensor.Arena) *tensor.Tensor) {
	t.Helper()
	want := f(nil)
	var a tensor.Arena
	a.New(7) // a live tensor before the forward, as under a Sequential
	before := a.Mark()
	y := f(&a)
	after := a.Mark()
	bitsEqual(t, y, want, what+": planned output")
	a.Release(before)
	a.New(y.Shape...)
	if again := a.Mark(); again != after {
		t.Fatalf("%s: the forward left more than its %v output carved (mark %v, its output alone %v)", what, y.Shape, after, again)
	}
}

// roundHook is a quant.Input stand-in that rounds to eighths, and
// observe an Observe stand-in: together they make applyIn carve a
// quantized copy, as a quantized cell's forward does.
func roundHook(dst, src []float32) {
	for i, v := range src {
		dst[i] = float32(int(v*8)) / 8
	}
}

func observe([]float32) {}

// hook installs the input hooks on every QState of qs.
func hook(qs ...*QState) {
	for _, q := range qs {
		q.Input, q.Observe = roundHook, observe
	}
}

func randTensor(seed uint64, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.FillNormal(tensor.NewRNG(seed), 0, 1)
	return x
}

// TestOpsLeaveOnlyOutput pins the op half of the scope rule: every op
// that carves scratch (quantized input copies, im2col patches, packed
// panels) releases it, FP32 and with a quant hook installed.
func TestOpsLeaveOnlyOutput(t *testing.T) {
	gemm := NewConv2d(3, 8, 3, 1, 1, 1) // 8·3·3·3 ≥ 64: tap-class GEMM
	gemm.W.FillNormal(tensor.NewRNG(1), 0, 0.2)
	direct := NewConv2d(4, 4, 3, 2, 1, 4) // depthwise: the direct loop
	direct.W.FillNormal(tensor.NewRNG(2), 0, 0.2)
	conv1 := newRectConv(3, 8, 1, 3, 1, 0, 1, 1) // 1×K over a row, 8·3·1·3 ≥ 64
	conv1.W.FillNormal(tensor.NewRNG(3), 0, 0.2)
	lin := NewLinear(16, 12)
	lin.W.FillNormal(tensor.NewRNG(4), 0, 0.2)
	qk := &BatchMatMulOp{TransposeB: true}
	pv := &BatchMatMulOp{}
	add, mul := &AddOp{}, &MulOp{}

	img := randTensor(5, 2, 3, 7, 7)
	dw := randTensor(6, 2, 4, 7, 7)
	seq := randTensor(7, 2, 3, 1, 9)
	tok := randTensor(8, 2, 5, 16)
	q, k := randTensor(9, 2, 2, 5, 4), randTensor(10, 2, 2, 6, 4)
	probs, v := randTensor(11, 2, 2, 5, 6), randTensor(12, 2, 2, 6, 4)
	scale := randTensor(13, 2, 4)

	cases := []struct {
		name string
		qs   []*QState
		f    func(a *tensor.Arena) *tensor.Tensor
	}{
		{"Conv2d/gemm", []*QState{&gemm.QS}, func(a *tensor.Arena) *tensor.Tensor { return gemm.Forward(a, img) }},
		{"Conv2d/direct", []*QState{&direct.QS}, func(a *tensor.Arena) *tensor.Tensor { return direct.Forward(a, dw) }},
		{"Conv2d/1xK", []*QState{&conv1.QS}, func(a *tensor.Arena) *tensor.Tensor { return conv1.Forward(a, seq) }},
		{"Linear", []*QState{&lin.QS}, func(a *tensor.Arena) *tensor.Tensor { return lin.Forward(a, tok) }},
		{"BatchMatMul/transB", []*QState{&qk.QA, &qk.QB}, func(a *tensor.Arena) *tensor.Tensor { return qk.Apply(a, q, k) }},
		{"BatchMatMul", []*QState{&pv.QA, &pv.QB}, func(a *tensor.Arena) *tensor.Tensor { return pv.Apply(a, probs, v) }},
		{"Add", []*QState{&add.QA, &add.QB}, func(a *tensor.Arena) *tensor.Tensor { return add.Apply(a, img, img) }},
		{"Mul", []*QState{&mul.QA, &mul.QB}, func(a *tensor.Arena) *tensor.Tensor { return mul.Apply(a, dw, scale) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { requireLeavesOnlyOutput(t, "FP32", c.f) })
	}
	for _, c := range cases {
		hook(c.qs...)
		t.Run(c.name+"/quantized", func(t *testing.T) { requireLeavesOnlyOutput(t, "quantized", c.f) })
	}
}

// hookAll installs the input hooks on every quantizable module under m,
// both operands of a binary op included.
func hookAll(m Module) {
	Walk(m, func(_ string, m Module) {
		if b, ok := m.(interface{ Operands() (a, b *QState) }); ok {
			hook(b.Operands())
		} else if q, ok := m.(Quantizable); ok {
			hook(q.Q())
		}
	})
}

// TestBlocksLeaveOnlyOutput pins the block half of the scope rule for
// the nn blocks whose scopes lower a zoo forward's arena footprint:
// SEBlock (its gate's temporaries) and GNConv (conv and norm outputs).
func TestBlocksLeaveOnlyOutput(t *testing.T) {
	se := NewSEBlock(8, 4)
	se.FC1.W.FillNormal(tensor.NewRNG(1), 0, 0.3)
	se.FC2.W.FillNormal(tensor.NewRNG(2), 0, 0.3)
	gn := &GNConv{Conv: NewConv2d(4, 6, 3, 1, 1, 1), GN: NewGroupNorm(6, 2)}
	gn.Conv.W.FillNormal(tensor.NewRNG(3), 0, 0.2)
	x8, x4 := randTensor(4, 2, 8, 5, 5), randTensor(5, 2, 4, 5, 5)
	cases := []struct {
		name string
		m    Module
		x    *tensor.Tensor
	}{
		{"SEBlock", se, x8},
		{"GNConv", gn, x4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := func(a *tensor.Arena) *tensor.Tensor { return c.m.Forward(a, c.x) }
			requireLeavesOnlyOutput(t, "FP32", f)
			hookAll(c.m)
			requireLeavesOnlyOutput(t, "quantized", f)
		})
	}
}
