package nn

import (
	"math"
	"testing"

	"fp8quant/internal/tensor"
)

// planTestNet builds a module chain exercising every arena mechanism:
// conv (im2col + packed panels), BatchNorm, pooling, a Flatten view
// (a header aliasing its input's data, which the chain's scope then
// moves over itself), packed linear layers and elementwise activations.
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

// rows returns rows [i, j) of t's leading dimension as a view sharing
// t's data: one sample's slice of a batch, or its block of output rows.
func rows(t *tensor.Tensor, i, j int) *tensor.Tensor {
	n := t.Len() / t.Shape[0]
	shape := append([]int{j - i}, t.Shape[1:]...)
	return tensor.FromSlice(t.Data[i*n:j*n], shape...)
}

// TestPlanMatchesUnplanned pins the determinism contract: the planned
// path (arena-backed, buffers reused across calls) and the unplanned
// path agree bit for bit, on every repeat of the plan.
func TestPlanMatchesUnplanned(t *testing.T) {
	m := planTestNet()
	x := planTestInput(4, 7)
	want := m.Forward(nil, x).Clone()
	bitsEqual(t, m.Forward(nil, x), want, "unplanned forward")
	p := NewPlan(m)
	for i := 0; i < 3; i++ {
		bitsEqual(t, p.Forward(x), want, "planned forward")
	}
}

// TestPlanBatchedRowsMatchSingle checks the batched-forward contract:
// one planned forward over a batch of N inputs yields, row for row, the
// bits of N unplanned forwards over its single-sample slices (the batch
// dimension folds into the GEMM M dimension without changing any
// per-row accumulation order).
func TestPlanBatchedRowsMatchSingle(t *testing.T) {
	m := planTestNet()
	batch := planTestInput(5, 100)
	got := NewPlan(m).Forward(batch)
	for i := 0; i < batch.Shape[0]; i++ {
		bitsEqual(t, rows(got, i, i+1), m.Forward(nil, rows(batch, i, i+1)), "batched row")
	}
}

// TestPlanOutputAliasing verifies the memory-safety contract: planned
// outputs live in the plan's arena, Clone moves them to the heap, and
// a later Forward does not disturb the clone.
func TestPlanOutputAliasing(t *testing.T) {
	m := planTestNet()
	x1 := planTestInput(2, 11)
	x2 := planTestInput(2, 13)
	p := NewPlan(m)
	out1 := p.Forward(x1)
	kept := out1.Clone()
	if &kept.Data[0] == &out1.Data[0] {
		t.Fatal("Clone of a planned output still aliases arena memory")
	}
	out2 := p.Forward(x2)
	// A heap forward would return fresh memory while out1 is still
	// live; the planned one reuses the same arena chunk.
	if &out2.Data[0] != &out1.Data[0] {
		t.Fatal("steady-state planned output does not live in an arena")
	}
	// The clone must still hold x1's result, not x2's.
	want1 := m.Forward(nil, x1)
	bitsEqual(t, kept, want1, "clone survives next Forward")
	want2 := m.Forward(nil, x2)
	bitsEqual(t, out2, want2, "second planned forward")
}

// TestPlanShapeChangeRerecords runs one plan across alternating input
// shapes; a larger shape appends chunks, a smaller one reuses them, and
// results stay bit-identical to the unplanned path.
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
}

// TestArenaZeroesCarvedMemory: carved regions must read as zero even
// after a previous cycle dirtied the chunk (forward paths accumulate
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

// TestPlanCellSurvivesForwards pins the cell arena's lifetime: memory
// carved from Cell before a forward keeps its bits through Begin and
// the forward, and a carve after them lands elsewhere, because only
// the cell arena's owner rewinds it. A nil plan's cell arena is the
// heap.
func TestPlanCellSurvivesForwards(t *testing.T) {
	m := planTestNet()
	x := planTestInput(4, 11)
	p := NewPlan(m)
	p.Forward(x) // the forward arena's chunks now exist
	masters := make([][]float32, 3)
	for i := range masters {
		masters[i] = p.Cell().Alloc(1000 * (i + 1))
		for j := range masters[i] {
			masters[i][j] = float32(i*1e6 + j)
		}
		p.Forward(x)
		p.Begin()
	}
	for i, s := range masters {
		for j, v := range s {
			if v != float32(i*1e6+j) {
				t.Fatalf("master %d changed at %d to %v after later forwards and carves", i, j, v)
			}
		}
	}
	if (*Plan)(nil).Cell() != nil {
		t.Fatal("a nil plan's cell arena is not the heap")
	}
}

// TestPlanTrimKeepsCell pins Trim: cell-arena memory keeps its bits
// across it, a forward after it still matches the unplanned path, and
// after a forward that appended nothing it keeps every chunk, so the
// next forward allocates nothing.
func TestPlanTrimKeepsCell(t *testing.T) {
	m := planTestNet()
	x := planTestInput(2, 13)
	want := m.Forward(nil, x)
	p := NewPlan(m)
	master := p.Cell().Alloc(1000)
	for j := range master {
		master[j] = float32(j)
	}
	bitsEqual(t, p.Forward(x), want, "first forward")
	p.Trim()
	bitsEqual(t, p.Forward(planTestInput(2, 14)), m.Forward(nil, planTestInput(2, 14)), "forward after Trim")
	for j, v := range master {
		if v != float32(j) {
			t.Fatalf("cell memory changed at %d to %v across Trim", j, v)
		}
	}
	p.Forward(x)
	if n := testing.AllocsPerRun(3, func() { p.Trim(); p.Forward(x) }); n != 0 {
		t.Fatalf("a forward the chunks held allocated %.0f times after Trim, want 0", n)
	}
}
