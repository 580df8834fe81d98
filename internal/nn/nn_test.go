package nn

import (
	"math"
	"strings"
	"testing"

	"fp8quant/internal/tensor"
)

func fillOnes(data []float32) {
	for i := range data {
		data[i] = 1
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLinearForward(t *testing.T) {
	l := NewLinear(2, 3)
	// W = [[1,0],[0,1],[1,1]], b = [0, 1, 2]
	copy(l.W.Data, []float32{1, 0, 0, 1, 1, 1})
	copy(l.B, []float32{0, 1, 2})
	x := tensor.FromSlice([]float32{2, 3}, 1, 2)
	y := l.Forward(nil, x)
	want := []float32{2, 4, 7}
	for i, w := range want {
		if y.Data[i] != w {
			t.Errorf("y[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
}

func TestLinearBatchedLeadingDims(t *testing.T) {
	l := NewLinear(4, 2)
	l.W.FillNormal(tensor.NewRNG(1), 0, 1)
	x := tensor.New(2, 3, 4)
	x.FillNormal(tensor.NewRNG(2), 0, 1)
	y := l.Forward(nil, x)
	if y.Shape[0] != 2 || y.Shape[1] != 3 || y.Shape[2] != 2 {
		t.Fatalf("shape = %v, want [2 3 2]", y.Shape)
	}
	// Row 0 of the flattened input should match a 1-row forward.
	x0 := tensor.FromSlice(x.Data[:4], 1, 4)
	y0 := l.Forward(nil, x0)
	for i := range y0.Data {
		if !almostEq(float64(y.Data[i]), float64(y0.Data[i]), 1e-6) {
			t.Errorf("batched row 0 differs at %d", i)
		}
	}
}

func TestLinearQuantHooks(t *testing.T) {
	l := NewLinear(2, 1)
	copy(l.W.Data, []float32{1, 1})
	var observed []float32
	l.QS.Observe = func(v []float32) { observed = append(observed, v...) }
	x := tensor.FromSlice([]float32{0.4, 0.6}, 1, 2)
	l.Forward(nil, x)
	if len(observed) != 2 {
		t.Fatalf("observer saw %d values, want 2", len(observed))
	}
	// Input hook that zeroes the activation must change the result.
	l.QS.Input = func(dst, src []float32) {
		for i := range dst {
			dst[i] = 0
		}
	}
	y := l.Forward(nil, x)
	if y.Data[0] != 0 {
		t.Errorf("input hook not applied: y = %v", y.Data[0])
	}
	// Original input must not be mutated by the hook.
	if x.Data[0] != 0.4 {
		t.Error("input tensor mutated by quant hook")
	}
	l.QS.Reset()
	if y := l.Forward(nil, x); y.Data[0] != 1.0 {
		t.Errorf("Reset did not restore FP32 path: %v", y.Data[0])
	}
}

func TestConv2dIdentityKernel(t *testing.T) {
	c := NewConv2d(1, 1, 3, 1, 1, 1)
	c.W.Set(1, 0, 0, 1, 1) // centre tap
	x := tensor.New(1, 1, 4, 4)
	x.FillNormal(tensor.NewRNG(3), 0, 1)
	y := c.Forward(nil, x)
	for i := range x.Data {
		if !almostEq(float64(y.Data[i]), float64(x.Data[i]), 1e-6) {
			t.Fatalf("identity conv mismatch at %d", i)
		}
	}
}

func TestConv2dStridePad(t *testing.T) {
	c := NewConv2d(2, 4, 3, 2, 1, 1)
	x := tensor.New(1, 2, 8, 8)
	y := c.Forward(nil, x)
	if y.Shape[1] != 4 || y.Shape[2] != 4 || y.Shape[3] != 4 {
		t.Errorf("shape = %v, want [1 4 4 4]", y.Shape)
	}
}

func TestConv2dSumKernel(t *testing.T) {
	// 2x2 all-ones kernel, no pad: output = local window sums.
	c := NewConv2d(1, 1, 2, 1, 0, 1)
	fillOnes(c.W.Data)
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	y := c.Forward(nil, x)
	if y.Len() != 1 || y.Data[0] != 10 {
		t.Errorf("sum conv = %v, want [10]", y.Data)
	}
}

// The Conv1d tests run a 1-D convolution as a 1xK Conv2d over a [N, C, 1, T]
// row, the layout the speech models' feature extractor uses.

func TestConv1dIdentity(t *testing.T) {
	c := newRectConv(1, 1, 1, 1, 1, 0, 0, 1)
	c.W.Data[0] = 1
	x := tensor.New(1, 1, 1, 8)
	x.FillNormal(tensor.NewRNG(1), 0, 1)
	y := c.Forward(nil, x)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("identity conv1d mismatch")
		}
	}
}

func TestConv1dStride(t *testing.T) {
	// The speech models' 1×5, stride 4, pad 2 kernel over a row.
	c := newRectConv(2, 4, 1, 5, 4, 0, 2, 1)
	y := c.Forward(nil, tensor.New(2, 2, 1, 64))
	oh, ow := c.OutSize(1, 64)
	if y.Shape[0] != 2 || y.Shape[1] != 4 || y.Shape[2] != oh || y.Shape[3] != ow {
		t.Fatalf("shape %v", y.Shape)
	}
	if oh != 1 || ow != 16 {
		t.Errorf("OutSize(1, 64) = %d, %d, want 1, 16", oh, ow)
	}
}

func TestConv1dSumKernel(t *testing.T) {
	// 1x3 all-ones kernel over a row: sums along the width only.
	c := newRectConv(1, 1, 1, 3, 1, 0, 0, 1)
	fillOnes(c.W.Data)
	y := c.Forward(nil, tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 1, 4))
	if y.Len() != 2 || y.Data[0] != 6 || y.Data[1] != 9 {
		t.Errorf("1x3 sum conv = %v, want [6 9]", y.Data)
	}
}

func TestDepthwiseConvGroups(t *testing.T) {
	// Depthwise: each channel convolved independently.
	c := NewConv2d(2, 2, 1, 1, 0, 2)
	c.W.Set(2, 0, 0, 0, 0) // channel 0 scale 2
	c.W.Set(3, 1, 0, 0, 0) // channel 1 scale 3
	x := tensor.FromSlice([]float32{1, 1, 1, 1, 2, 2, 2, 2}, 1, 2, 2, 2)
	y := c.Forward(nil, x)
	for i := 0; i < 4; i++ {
		if y.Data[i] != 2 {
			t.Errorf("ch0[%d] = %v, want 2", i, y.Data[i])
		}
		if y.Data[4+i] != 6 {
			t.Errorf("ch1[%d] = %v, want 6", i, y.Data[4+i])
		}
	}
}

func TestPooling(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	mp := &MaxPool2d{K: 2, Stride: 2}
	if y := mp.Forward(nil, x); y.Data[0] != 4 {
		t.Errorf("maxpool = %v, want 4", y.Data[0])
	}
	ap := &AvgPool2d{K: 2, Stride: 2}
	if y := ap.Forward(nil, x); y.Data[0] != 2.5 {
		t.Errorf("avgpool = %v, want 2.5", y.Data[0])
	}
	var gap GlobalAvgPool
	if y := gap.Forward(nil, x); y.Data[0] != 2.5 {
		t.Errorf("gap = %v, want 2.5", y.Data[0])
	}
}

func TestBatchNormNormalizes(t *testing.T) {
	bn := NewBatchNorm2d(1)
	bn.Mean[0] = 2
	bn.Var[0] = 4
	x := tensor.FromSlice([]float32{2, 4, 0, 6}, 1, 1, 2, 2)
	y := bn.Forward(nil, x)
	want := []float32{0, 1, -1, 2} // (x-2)/2
	for i := range want {
		if !almostEq(float64(y.Data[i]), float64(want[i]), 1e-3) {
			t.Errorf("bn[%d] = %v, want %v", i, y.Data[i], want[i])
		}
	}
}

func TestBatchNormCalibration(t *testing.T) {
	bn := NewBatchNorm2d(1)
	bn.Mean[0] = 100 // wildly wrong stats
	bn.Var[0] = 1
	bn.startCalibration(make([]float64, 2))
	r := tensor.NewRNG(5)
	for i := 0; i < 10; i++ {
		x := tensor.New(2, 1, 4, 4)
		x.FillNormal(r, 3, 2)
		bn.Forward(nil, x)
	}
	bn.finishCalibration()
	if !almostEq(float64(bn.Mean[0]), 3, 0.3) {
		t.Errorf("recalibrated mean = %v, want ~3", bn.Mean[0])
	}
	if !almostEq(float64(bn.Var[0]), 4, 1.0) {
		t.Errorf("recalibrated var = %v, want ~4", bn.Var[0])
	}
	if bn.calibrating {
		t.Error("calibration flag not cleared")
	}
}

// TestCalibrateBatchNorms pins the estimator's cycle rules: it stops at
// the first cycle that leaves the statistics within tolerance, never
// runs more than maxCycles, never runs over no BatchNorm, and a
// snapshot restores the statistics it copied.
func TestCalibrateBatchNorms(t *testing.T) {
	bn := NewBatchNorm2d(1)
	bns := []*BatchNorm2d{bn}
	before := SnapshotBatchNorms(bns, nil)
	x := tensor.New(2, 1, 4, 4)
	x.FillNormal(tensor.NewRNG(5), 3, 2)
	passes := 0
	CalibrateBatchNorms(bns, 5, nil, func() { passes++; bn.Forward(nil, x) })
	// Cycle 1 moves the mean from 0 to ~3; cycle 2 sees the same data.
	if passes != 2 {
		t.Errorf("fixed data: %d passes, want 2", passes)
	}
	passes = 0
	CalibrateBatchNorms(bns, 3, nil, func() {
		passes++
		y := x.Clone()
		for i := range y.Data {
			y.Data[i] += float32(10 * passes)
		}
		bn.Forward(nil, y)
	})
	if passes != 3 {
		t.Errorf("drifting data: %d passes, want the cap 3", passes)
	}
	CalibrateBatchNorms(nil, 3, nil, func() { t.Error("pass ran with no BatchNorm") })
	RestoreBatchNorms(bns, before)
	if bn.Mean[0] != 0 || bn.Var[0] != 1 {
		t.Errorf("restored stats = %v, %v; want 0, 1", bn.Mean[0], bn.Var[0])
	}
}

// TestCalibrateBatchNormsReusesScratch pins the scratch contract: an
// estimate in a caller's CalibScratch equals one in a fresh scratch bit
// for bit, a warm scratch allocates nothing, and no BatchNorm keeps a
// window of the scratch once the estimate returns.
func TestCalibrateBatchNormsReusesScratch(t *testing.T) {
	bns := []*BatchNorm2d{NewBatchNorm2d(3), NewBatchNorm2d(2)}
	x := tensor.New(2, 3, 4, 4)
	x.FillNormal(tensor.NewRNG(7), 1, 3)
	pass := func() { bns[1].Forward(nil, tensor.FromSlice(bns[0].Forward(nil, x).Data[:64], 2, 2, 4, 4)) }
	before := SnapshotBatchNorms(bns, nil)
	CalibrateBatchNorms(bns, 3, nil, pass)
	want := SnapshotBatchNorms(bns, nil)

	var sc CalibScratch
	passes := 0
	counted := func() { passes++; pass() }
	allocs := testing.AllocsPerRun(3, func() {
		passes = 0
		RestoreBatchNorms(bns, before)
		CalibrateBatchNorms(bns, 3, &sc, counted)
	})
	got := SnapshotBatchNorms(bns, nil)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("stat %d: %v in a reused scratch, %v in a fresh one", i, got[i], want[i])
		}
	}
	// The passes' heap forwards allocate; the estimator adds nothing.
	passAllocs := testing.AllocsPerRun(3, pass)
	if allocs > float64(passes)*passAllocs {
		t.Errorf("warm scratch: %.0f allocations over %d passes of %.0f each", allocs, passes, passAllocs)
	}
	for i, bn := range bns {
		if bn.sum != nil || bn.sumSq != nil || bn.calibrating {
			t.Errorf("BatchNorm %d keeps its accumulators after calibration", i)
		}
	}
}

func TestLayerNormOutput(t *testing.T) {
	ln := NewLayerNorm(4)
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 4)
	y := ln.Forward(nil, x)
	// Output must have ~zero mean and ~unit variance.
	var mu float64
	for _, v := range y.Data {
		mu += float64(v)
	}
	mu /= 4
	if !almostEq(mu, 0, 1e-5) {
		t.Errorf("LN mean = %v", mu)
	}
	var va float64
	for _, v := range y.Data {
		va += (float64(v) - mu) * (float64(v) - mu)
	}
	if !almostEq(va/4, 1, 1e-3) {
		t.Errorf("LN var = %v", va/4)
	}
}

func TestRMSNorm(t *testing.T) {
	rn := NewRMSNorm(2)
	x := tensor.FromSlice([]float32{3, 4}, 1, 2)
	y := rn.Forward(nil, x)
	// RMS = sqrt(25/2); y = x / rms.
	rms := math.Sqrt(12.5)
	if !almostEq(float64(y.Data[0]), 3/rms, 1e-4) {
		t.Errorf("rmsnorm = %v", y.Data)
	}
}

func TestGroupNorm(t *testing.T) {
	gn := NewGroupNorm(4, 2)
	x := tensor.New(1, 4, 2, 2)
	x.FillNormal(tensor.NewRNG(6), 5, 3)
	y := gn.Forward(nil, x)
	// Each group of 2 channels should be ~N(0,1) after norm.
	for g := 0; g < 2; g++ {
		seg := y.Data[g*8 : (g+1)*8]
		var mu float64
		for _, v := range seg {
			mu += float64(v)
		}
		mu /= 8
		if !almostEq(mu, 0, 1e-4) {
			t.Errorf("group %d mean = %v", g, mu)
		}
	}
}

func TestActivations(t *testing.T) {
	x := tensor.FromSlice([]float32{-2, 0, 2}, 3)
	if y := (ReLU{}).Forward(nil, x); y.Data[0] != 0 || y.Data[2] != 2 {
		t.Errorf("relu = %v", y.Data)
	}
	if y := (Sigmoid{}).Forward(nil, x); !almostEq(float64(y.Data[1]), 0.5, 1e-6) {
		t.Errorf("sigmoid(0) = %v", y.Data[1])
	}
	if y := (Tanh{}).Forward(nil, x); !almostEq(float64(y.Data[1]), 0, 1e-6) {
		t.Errorf("tanh(0) = %v", y.Data[1])
	}
	y := (GELU{}).Forward(nil, x)
	if !almostEq(float64(y.Data[1]), 0, 1e-6) || y.Data[2] < 1.9 {
		t.Errorf("gelu = %v", y.Data)
	}
	if y := (SiLU{}).Forward(nil, x); !almostEq(float64(y.Data[1]), 0, 1e-6) {
		t.Errorf("silu(0) = %v", y.Data[1])
	}
	if y := (HardSwish{}).Forward(nil, tensor.FromSlice([]float32{-4, 0, 4}, 3)); y.Data[0] != 0 || y.Data[2] != 4 {
		t.Errorf("hardswish = %v", y.Data)
	}
}

func TestSoftmaxRows(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 1, 1, 0, 0, 100}, 2, 3)
	y := (Softmax{}).Forward(nil, x)
	for r := 0; r < 2; r++ {
		var s float64
		for c := 0; c < 3; c++ {
			s += float64(y.Data[r*3+c])
		}
		if !almostEq(s, 1, 1e-5) {
			t.Errorf("row %d sum = %v", r, s)
		}
	}
	if !almostEq(float64(y.Data[0]), 1.0/3, 1e-5) {
		t.Errorf("uniform row wrong: %v", y.Data[:3])
	}
	if y.Data[5] < 0.999 {
		t.Errorf("peaked row wrong: %v", y.Data[3:])
	}
}

func TestAddMulOps(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2}, 2)
	b := tensor.FromSlice([]float32{10, 20}, 2)
	var add AddOp
	y := add.Apply(nil, a, b)
	if y.Data[0] != 11 || y.Data[1] != 22 {
		t.Errorf("add = %v", y.Data)
	}
	var mul MulOp
	y = mul.Apply(nil, a, b)
	if y.Data[0] != 10 || y.Data[1] != 40 {
		t.Errorf("mul = %v", y.Data)
	}
	// Broadcast: [1,2,2,2] * [1,2] per-channel.
	x := tensor.New(1, 2, 2, 2)
	fillOnes(x.Data)
	s := tensor.FromSlice([]float32{2, 3}, 1, 2)
	y = mul.Apply(nil, x, s)
	if y.Data[0] != 2 || y.Data[7] != 3 {
		t.Errorf("broadcast mul = %v", y.Data)
	}
}

func TestEmbeddingLookup(t *testing.T) {
	e := NewEmbedding(10, 2)
	e.W.Set(1.5, 3, 0)
	e.W.Set(2.5, 3, 1)
	y := e.Lookup(nil, [][]int{{3, 3}, {0, 3}})
	if y.Shape[0] != 2 || y.Shape[1] != 2 || y.Shape[2] != 2 {
		t.Fatalf("shape %v", y.Shape)
	}
	if y.At(0, 0, 0) != 1.5 || y.At(1, 1, 1) != 2.5 || y.At(1, 0, 0) != 0 {
		t.Errorf("lookup values wrong: %v", y.Data)
	}
}

func TestEmbeddingBag(t *testing.T) {
	e := NewEmbeddingBag(4, 2)
	for i := 0; i < 4; i++ {
		e.W.Set(float32(i), i, 0)
	}
	y := e.LookupBags(nil, [][]int{{1, 2, 3}, {0}})
	if y.At(0, 0) != 6 || y.At(1, 0) != 0 {
		t.Errorf("bag sums = %v", y.Data)
	}
	e.Mean = true
	y = e.LookupBags(nil, [][]int{{1, 3}})
	if y.At(0, 0) != 2 {
		t.Errorf("bag mean = %v", y.At(0, 0))
	}
}

func TestAttentionShapesAndCausality(t *testing.T) {
	a := NewMultiHeadAttention(8, 2)
	r := tensor.NewRNG(7)
	for _, l := range []*Linear{a.WQ, a.WK, a.WV, a.WO} {
		l.W.FillNormal(r, 0, 0.3)
	}
	x := tensor.New(2, 5, 8)
	x.FillNormal(r, 0, 1)
	y := a.Forward(nil, x)
	if y.Shape[0] != 2 || y.Shape[1] != 5 || y.Shape[2] != 8 {
		t.Fatalf("attention shape %v", y.Shape)
	}
	// Causal: output at position 0 must not change when we perturb
	// positions > 0.
	a.Causal = true
	y1 := a.Forward(nil, x)
	x2 := x.Clone()
	for i := 8; i < x2.Len(); i++ {
		x2.Data[i] += 5
	}
	y2 := a.Forward(nil, x2)
	for d := 0; d < 8; d++ {
		if !almostEq(float64(y1.At(0, 0, d)), float64(y2.At(0, 0, d)), 1e-5) {
			t.Fatalf("causal mask leaked future info at dim %d", d)
		}
	}
}

func TestSlidingWindowAttention(t *testing.T) {
	a := NewMultiHeadAttention(4, 1)
	a.Window = 1
	r := tensor.NewRNG(8)
	for _, l := range []*Linear{a.WQ, a.WK, a.WV, a.WO} {
		l.W.FillNormal(r, 0, 0.3)
	}
	x := tensor.New(1, 6, 4)
	x.FillNormal(r, 0, 1)
	y1 := a.Forward(nil, x)
	// Perturbing position 5 must not affect output at position 0
	// (distance 5 > window 1).
	x2 := x.Clone()
	for d := 0; d < 4; d++ {
		x2.Set(x2.At(0, 5, d)+3, 0, 5, d)
	}
	y2 := a.Forward(nil, x2)
	for d := 0; d < 4; d++ {
		if !almostEq(float64(y1.At(0, 0, d)), float64(y2.At(0, 0, d)), 1e-5) {
			t.Fatalf("window mask leaked at dim %d", d)
		}
	}
}

func TestBatchMatMul(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	b := tensor.FromSlice([]float32{5, 6, 7, 8}, 1, 2, 2)
	y := (&BatchMatMulOp{}).Apply(nil, a, b)
	want := []float32{19, 22, 43, 50}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Errorf("bmm[%d] = %v, want %v", i, y.Data[i], want[i])
		}
	}
	// transB: a · bᵀ
	y = (&BatchMatMulOp{TransposeB: true}).Apply(nil, a, b)
	want = []float32{17, 23, 39, 53}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Errorf("bmmT[%d] = %v, want %v", i, y.Data[i], want[i])
		}
	}
}

func TestSequentialAndWalk(t *testing.T) {
	s := NewSequential(NewLinear(4, 4), ReLU{}, NewLinear(4, 2))
	var kinds []string
	var paths []string
	Walk(s, func(path string, m Module) {
		kinds = append(kinds, m.Kind())
		paths = append(paths, path)
	})
	if len(kinds) != 4 { // Sequential + 3 children
		t.Fatalf("walked %d modules: %v", len(kinds), kinds)
	}
	if !strings.Contains(paths[1], "Linear") {
		t.Errorf("path naming: %v", paths)
	}
}

func TestResidualBlockShapes(t *testing.T) {
	b := NewResidualBlock(4, 8, 2)
	b.Conv1.W.FillNormal(tensor.NewRNG(9), 0, 0.1)
	b.Conv2.W.FillNormal(tensor.NewRNG(10), 0, 0.1)
	b.Proj.W.FillNormal(tensor.NewRNG(11), 0, 0.1)
	x := tensor.New(1, 4, 8, 8)
	x.FillNormal(tensor.NewRNG(12), 0, 1)
	y := b.Forward(nil, x)
	if y.Shape[1] != 8 || y.Shape[2] != 4 {
		t.Errorf("residual shape %v", y.Shape)
	}
	// Count modules visited.
	n := 0
	Walk(b, func(string, Module) { n++ })
	if n != 8 { // block + conv1,bn1,conv2,bn2,proj,projbn,skip
		t.Errorf("visited %d, want 8", n)
	}
}

func TestEncoderDecoderLayers(t *testing.T) {
	r := tensor.NewRNG(13)
	enc := NewTransformerEncoderLayer(8, 2, 16)
	initTransformer(t, r, enc.Attn, enc.FF.FC1, enc.FF.FC2)
	x := tensor.New(1, 4, 8)
	x.FillNormal(r, 0, 1)
	y := enc.Forward(nil, x)
	if y.Shape[2] != 8 {
		t.Errorf("encoder shape %v", y.Shape)
	}

	dec := NewLlamaDecoderLayer(8, 2, 16)
	sw := dec.FF.(*SwiGLU)
	initTransformer(t, r, dec.Attn, sw.W1, sw.W2)
	sw.W3.W.FillNormal(r, 0, 0.2)
	y = dec.Forward(nil, x)
	if y.Shape[2] != 8 {
		t.Errorf("decoder shape %v", y.Shape)
	}
	if !dec.Attn.Causal {
		t.Error("llama decoder must be causal")
	}
}

func initTransformer(t *testing.T, r *tensor.RNG, a *MultiHeadAttention, extra ...*Linear) {
	t.Helper()
	for _, l := range []*Linear{a.WQ, a.WK, a.WV, a.WO} {
		l.W.FillNormal(r, 0, 0.2)
	}
	for _, l := range extra {
		l.W.FillNormal(r, 0, 0.2)
	}
}

func TestSEBlockGating(t *testing.T) {
	se := NewSEBlock(4, 2)
	se.FC1.W.FillNormal(tensor.NewRNG(14), 0, 0.5)
	se.FC2.W.FillNormal(tensor.NewRNG(15), 0, 0.5)
	x := tensor.New(1, 4, 2, 2)
	fillOnes(x.Data)
	y := se.Forward(nil, x)
	// Gates are in (0,1), so output magnitudes shrink.
	for i, v := range y.Data {
		if v <= 0 || v >= 1 {
			t.Errorf("SE output[%d] = %v, want in (0,1)", i, v)
		}
	}
}

func TestUpsampleConcat(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	var up Upsample2x
	y := up.Forward(nil, x)
	if y.Shape[2] != 4 || y.At(0, 0, 0, 1) != 1 || y.At(0, 0, 3, 3) != 4 {
		t.Errorf("upsample: %v %v", y.Shape, y.Data)
	}
	z := ConcatChannels(nil, x, x)
	if z.Shape[1] != 2 || z.Data[4] != 1 {
		t.Errorf("concat: %v %v", z.Shape, z.Data)
	}
}

func TestCrossAttention(t *testing.T) {
	ca := NewCrossAttention(8, 2)
	r := tensor.NewRNG(16)
	for _, l := range []*Linear{ca.WQ, ca.WK, ca.WV, ca.WO} {
		l.W.FillNormal(r, 0, 0.3)
	}
	q := tensor.New(1, 3, 8)
	q.FillNormal(r, 0, 1)
	mem := tensor.New(1, 7, 8)
	mem.FillNormal(r, 0, 1)
	y := ca.Attend(nil, q, mem)
	if y.Shape[0] != 1 || y.Shape[1] != 3 || y.Shape[2] != 8 {
		t.Errorf("cross attention shape %v", y.Shape)
	}
}

// TestCrossAttendSelfMatchesForward pins the shared attention body:
// unmasked cross-attention over its own input is self-attention, bit
// for bit.
func TestCrossAttendSelfMatchesForward(t *testing.T) {
	ca := NewCrossAttention(8, 2)
	r := tensor.NewRNG(17)
	for _, l := range []*Linear{ca.WQ, ca.WK, ca.WV, ca.WO} {
		l.W.FillNormal(r, 0, 0.3)
	}
	x := tensor.New(2, 5, 8)
	x.FillNormal(r, 0, 1)
	bitsEqual(t, ca.Attend(nil, x, x), ca.Forward(nil, x), "Attend(x, x) vs Forward(x)")
}

func TestBinaryOpsPanicOnForward(t *testing.T) {
	for _, m := range []Module{&AddOp{}, &MulOp{}, &BatchMatMulOp{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s.Forward should panic", m.Kind())
				}
			}()
			m.Forward(nil, tensor.New(1))
		}()
	}
}

func TestPositionalEmbedding(t *testing.T) {
	p := NewPositionalEmbedding(4, 2)
	p.W.Set(1, 1, 0) // position 1 gets +1 on dim 0
	x := tensor.New(1, 2, 2)
	y := p.Forward(nil, x)
	if y.At(0, 1, 0) != 1 || y.At(0, 0, 0) != 0 {
		t.Errorf("positional add wrong: %v", y.Data)
	}
}
