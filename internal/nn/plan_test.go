package nn

import (
	"math"
	"runtime"
	"testing"

	"fp8quant/internal/tensor"
)

// planTestNet builds a module chain exercising every arena mechanism:
// conv (im2col + packed panels), BatchNorm, pooling, a Flatten view
// (arena header aliasing another side's data under ping-pong), packed
// linear layers and elementwise activations.
func planTestNet() *Sequential {
	r := tensor.NewRNG(0x9E3779B97F4A7C15)
	conv := NewConv2d(3, 8, 3, 1, 1, 1)
	conv.W.FillNormal(r, 0, 0.2)
	for i := range conv.B {
		conv.B[i] = float32(0.01 * r.Norm())
	}
	bn := NewBatchNorm2d(8)
	for i := 0; i < bn.C; i++ {
		bn.Gamma[i] = float32(1 + 0.1*r.Norm())
		bn.Beta[i] = float32(0.05 * r.Norm())
		bn.Mean[i] = float32(0.1 * r.Norm())
		bn.Var[i] = float32(0.5 + 0.5*r.Float64())
	}
	fc1 := NewLinear(8*6*6, 16)
	fc1.W.FillNormal(r, 0, 0.1)
	fc2 := NewLinear(16, 4)
	fc2.W.FillNormal(r, 0, 0.2)
	return NewSequential(conv, bn, ReLU{}, &MaxPool2d{K: 2, Stride: 2},
		Flatten{}, fc1, GELU{}, fc2)
}

func planTestInput(batch int, seed uint64) *tensor.Tensor {
	r := tensor.NewRNG(seed)
	x := tensor.New(batch, 3, 12, 12)
	x.FillNormal(r, 0, 1)
	return x
}

func bitsEqual(t *testing.T, got, want *tensor.Tensor, what string) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: length %d vs %d", what, len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: bit mismatch at %d: %x vs %x", what, i,
				math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

// TestPlanBitIdenticalAcrossGOMAXPROCS pins the determinism contract:
// the unplanned path parallelizes across row chunks while the planned
// path runs serial per-worker kernels, and both must agree bit-for-bit
// at every parallelism level (the PR-5 blocked-GEMM guarantee).
func TestPlanBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	m := planTestNet()
	x := planTestInput(4, 7)
	want := m.Forward(nil, x).Clone()
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		unplanned := m.Forward(nil, x)
		bitsEqual(t, unplanned, want, "unplanned forward")
		p := Compile(m, x.Shape...)
		for i := 0; i < 3; i++ {
			bitsEqual(t, p.Forward(x), want, "planned forward")
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestPlanBatchedRowsMatchSingle checks the batched-forward contract:
// stacking N inputs and running one planned forward yields, row for
// row, the bits of N independent single-sample forwards (the batch
// dimension folds into the GEMM M dimension without changing any
// per-row accumulation order).
func TestPlanBatchedRowsMatchSingle(t *testing.T) {
	m := planTestNet()
	singles := make([]*tensor.Tensor, 5)
	outs := make([]*tensor.Tensor, 5)
	for i := range singles {
		singles[i] = planTestInput(1, uint64(100+i))
		outs[i] = m.Forward(nil, singles[i]).Clone()
	}
	batch := tensor.StackBatch(singles)
	p := Compile(m, batch.Shape...)
	got := p.Forward(batch)
	for i := range singles {
		bitsEqual(t, got.Slice0(i, i+1), outs[i], "batched row")
	}
}

// TestPlanOutputAliasing verifies the memory-safety contract: planned
// outputs live in the plan's arenas, Clone moves them to the heap, and
// a later Forward does not disturb the clone.
func TestPlanOutputAliasing(t *testing.T) {
	m := planTestNet()
	x1 := planTestInput(2, 11)
	x2 := planTestInput(2, 13)
	p := Compile(m, x1.Shape...)
	out1 := p.Forward(x1)
	if !p.front.Owns(out1.Data) && !p.back.Owns(out1.Data) {
		t.Fatal("steady-state planned output does not live in an arena")
	}
	kept := out1.Clone()
	if p.front.Owns(kept.Data) || p.back.Owns(kept.Data) {
		t.Fatal("Clone of a planned output still aliases arena memory")
	}
	out2 := p.Forward(x2)
	// The clone must still hold x1's result, not x2's.
	want1 := m.Forward(nil, x1)
	bitsEqual(t, kept, want1, "clone survives next Forward")
	want2 := m.Forward(nil, x2)
	bitsEqual(t, out2, want2, "second planned forward")
}

// TestPlanShapeChangeRerecords runs one plan across alternating input
// shapes; each shape re-records (slabs grow monotonically) and results
// stay bit-identical to the unplanned path.
func TestPlanShapeChangeRerecords(t *testing.T) {
	m := planTestNet()
	xs := []*tensor.Tensor{
		planTestInput(1, 21), planTestInput(4, 22), planTestInput(2, 23),
	}
	p := NewPlan(m)
	for round := 0; round < 2; round++ {
		for i, x := range xs {
			got := p.Forward(x).Clone()
			want := m.Forward(nil, x)
			bitsEqual(t, got, want, "shape-change forward")
			_ = i
		}
	}
}

// TestArenaHeapFallback checks that a nil arena behaves exactly like
// the heap constructors.
func TestArenaHeapFallback(t *testing.T) {
	var a *tensor.Arena
	x := a.New(2, 3)
	if x.Len() != 6 || x.Rank() != 2 {
		t.Fatalf("nil-arena New wrong tensor: %v", x.Shape)
	}
	s := a.Alloc(5)
	if len(s) != 5 {
		t.Fatalf("nil-arena Alloc length %d", len(s))
	}
	v := a.View(s, 5)
	if &v.Data[0] != &s[0] {
		t.Fatal("nil-arena View copied data")
	}
	a.Reset() // must not panic
	if a.Owns(s) {
		t.Fatal("nil arena claims ownership")
	}
}

// TestArenaZeroesCarvedMemory: carved regions must read as zero even
// after a previous cycle dirtied the slab (forward paths accumulate
// into freshly-"allocated" outputs).
func TestArenaZeroesCarvedMemory(t *testing.T) {
	var a tensor.Arena
	for cycle := 0; cycle < 3; cycle++ {
		a.Reset()
		x := a.New(4, 4)
		for i := range x.Data {
			if x.Data[i] != 0 {
				t.Fatalf("cycle %d: carved memory not zeroed at %d", cycle, i)
			}
			x.Data[i] = float32(i + 1)
		}
	}
}
