package quant

import (
	"math"
	"testing"

	"fp8quant/internal/data"
	"fp8quant/internal/fp8"
	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// testMLP is a 2-layer model used across workflow tests.
type testMLP struct {
	seq *nn.Sequential
}

func newTestMLP(seed uint64) *testMLP {
	r := tensor.NewRNG(seed)
	l1 := nn.NewLinear(8, 16)
	l1.W.FillNormal(r, 0, 0.4)
	l2 := nn.NewLinear(16, 4)
	l2.W.FillNormal(r, 0, 0.4)
	return &testMLP{seq: nn.NewSequential(l1, nn.ReLU{}, l2)}
}

func (m *testMLP) Root() nn.Module { return m.seq }
func (m *testMLP) IsCNN() bool     { return false }
func (m *testMLP) Run(s data.Sample) *tensor.Tensor {
	return m.seq.Forward(nil, s.X)
}

type vecDataset struct {
	n, d    int
	batches int
	seed    uint64
	outlier float64
	// frac is the outlier fraction; realistic LLM activations have
	// sparse (<1%) but huge (20x+) outliers.
	frac float64
	// bigChannel scales feature 0 by the outlier factor on every row,
	// modelling the channel-concentrated outliers of NLP activations
	// (the regime SmoothQuant targets).
	bigChannel bool
}

func (v *vecDataset) Batches() int { return v.batches }
func (v *vecDataset) Batch(i int) data.Sample {
	r := tensor.NewRNG(v.seed + uint64(i))
	x := tensor.New(v.n, v.d)
	x.FillNormal(r, 0, 1)
	if v.outlier > 0 {
		if v.bigChannel {
			for row := 0; row < v.n; row++ {
				x.Data[row*v.d] *= float32(v.outlier)
			}
		} else {
			f := v.frac
			if f == 0 {
				f = 0.005
			}
			x.InjectOutliers(r, f, v.outlier, v.outlier*1.2)
		}
	}
	return data.Sample{X: x}
}

// testCNN is a small conv net for first/last and BN-calibration tests.
type testCNN struct {
	seq *nn.Sequential
}

func newTestCNN(seed uint64) *testCNN {
	r := tensor.NewRNG(seed)
	c1 := nn.NewConv2d(1, 4, 3, 1, 1, 1)
	c1.W.FillNormal(r, 0, 0.3)
	bn := nn.NewBatchNorm2d(4)
	c2 := nn.NewConv2d(4, 8, 3, 2, 1, 1)
	c2.W.FillNormal(r, 0, 0.3)
	fc := nn.NewLinear(8, 4)
	fc.W.FillNormal(r, 0, 0.4)
	seq := nn.NewSequential(c1, bn, nn.ReLU{}, c2, nn.ReLU{}, nn.GlobalAvgPool{}, fc)
	return &testCNN{seq: seq}
}

func (m *testCNN) Root() nn.Module { return m.seq }
func (m *testCNN) IsCNN() bool     { return true }
func (m *testCNN) Run(s data.Sample) *tensor.Tensor {
	return m.seq.Forward(nil, s.X)
}

type imgDataset struct {
	batches int
	seed    uint64
}

func (v *imgDataset) Batches() int { return v.batches }
func (v *imgDataset) Batch(i int) data.Sample {
	r := tensor.NewRNG(v.seed + uint64(i))
	x := tensor.New(2, 1, 8, 8)
	x.FillNormal(r, 0.5, 1)
	return data.Sample{X: x}
}

func TestMinMaxObserver(t *testing.T) {
	o := NewMinMaxObserver()
	o.Observe([]float32{-2, 3, 0.5})
	o.Observe([]float32{1, -5})
	mn, mx := o.Range()
	if mn != -5 || mx != 3 {
		t.Errorf("range = %v,%v", mn, mx)
	}
	if o.AbsMax() != 5 {
		t.Errorf("absmax = %v", o.AbsMax())
	}
	// NaN and Inf ignored.
	o.Observe([]float32{float32(math.NaN()), float32(math.Inf(1))})
	if o.AbsMax() != 5 {
		t.Error("NaN/Inf must be ignored")
	}
}

func TestPercentileObserverClipsOutliers(t *testing.T) {
	o := NewPercentileObserver(99)
	vals := make([]float32, 10000)
	r := tensor.NewRNG(1)
	for i := range vals {
		vals[i] = float32(r.Norm())
	}
	vals[0] = 1000 // single extreme outlier
	o.Observe(vals)
	if am := o.AbsMax(); am > 100 {
		t.Errorf("99th percentile absmax = %v, should clip the outlier", am)
	}
	// Range must stay within the clip.
	mn, mx := o.Range()
	if mx > 100 || mn < -100 {
		t.Errorf("clipped range = %v,%v", mn, mx)
	}
}

func TestHistogramObserverRangesContainData(t *testing.T) {
	o := NewHistogramObserver(128)
	o.Observe([]float32{0.5, -1.5, 2})
	o.Observe([]float32{3, -0.1})
	if o.AbsMax() != 3 {
		t.Errorf("absmax = %v", o.AbsMax())
	}
}

func TestKLThresholdClipsFP8LessThanInt8Wants(t *testing.T) {
	// Normal data plus outliers at 6: the classic Figure 10 setup.
	o := NewHistogramObserver(2048)
	r := tensor.NewRNG(2)
	vals := make([]float32, 50000)
	for i := range vals {
		vals[i] = float32(r.Norm() * math.Sqrt(0.5))
	}
	for i := 0; i < 500; i++ {
		vals[r.Intn(len(vals))] = float32(r.Uniform(5.5, 6))
	}
	o.Observe(vals)

	int8T := o.KLThreshold(func(th float64) Quantizer { return fp8.NewInt8Symmetric(th) })
	if int8T >= 5.5 {
		t.Errorf("INT8 KL threshold = %v, should clip below the outliers", int8T)
	}
	// MSE threshold search returns something in a sane range.
	mseT := o.MSEThreshold(func(th float64) Quantizer { return NewScaledFP8(fp8.E4M3, th) })
	if mseT <= 0 || mseT > 7 {
		t.Errorf("MSE threshold = %v", mseT)
	}
}

func TestStaticFP8FuncRoundsToGrid(t *testing.T) {
	fn := StaticFP8Func(fp8.E4M3, 4)
	src := []float32{0.1, -2.7, 3.9, 5.0} // 5.0 beyond threshold saturates
	dst := make([]float32, 4)
	fn(dst, src)
	scale := float32(fp8.E4M3.MaxValue() / 4)
	inv := 1 / scale
	for i, v := range src {
		want := float32(fp8.E4M3.Quantize(float64(v*scale))) * inv
		if dst[i] != want {
			t.Errorf("static[%d] = %v, want %v", i, dst[i], want)
		}
	}
	if math.Abs(float64(dst[3])-4) > 0.01 {
		t.Errorf("out-of-threshold value should saturate near 4: %v", dst[3])
	}
}

func TestDynamicFP8FuncAdaptsScale(t *testing.T) {
	fn := DynamicFP8Func(fp8.E4M3)
	small := []float32{0.001, -0.002, 0.003}
	dst := make([]float32, 3)
	fn(dst, small)
	// Relative error must be tiny because the scale adapts.
	for i := range small {
		rel := math.Abs(float64(dst[i]-small[i])) / math.Abs(float64(small[i]))
		if rel > 0.05 {
			t.Errorf("dynamic rel err[%d] = %v", i, rel)
		}
	}
	// All-zero input passes through.
	zeros := []float32{0, 0}
	fn(dst[:2], zeros)
	if dst[0] != 0 || dst[1] != 0 {
		t.Error("zeros must stay zero")
	}
}

func TestQuantizeWeightPerChannelIndependentScales(t *testing.T) {
	w := tensor.New(2, 4)
	// Channel 0 tiny, channel 1 huge.
	for i := 0; i < 4; i++ {
		w.Data[i] = 0.001 * float32(i+1)
		w.Data[4+i] = 100 * float32(i+1)
	}
	orig := append([]float32(nil), w.Data...)
	master := QuantizeWeightPerChannel(w, 0, E4M3)
	for i := range master {
		if master[i] != orig[i] {
			t.Fatal("master must be the pre-quant copy")
		}
	}
	// Both channels keep fine relative precision thanks to per-channel
	// scales.
	for i := range w.Data {
		rel := math.Abs(float64(w.Data[i]-orig[i])) / math.Abs(float64(orig[i]))
		if rel > 0.05 {
			t.Errorf("per-channel rel err[%d] = %v", i, rel)
		}
	}
	// Per-tensor quantization destroys the small channel.
	w2 := tensor.New(2, 4)
	copy(w2.Data, orig)
	QuantizeWeightPerTensor(w2, E4M3)
	worst := 0.0
	for i := 0; i < 4; i++ {
		rel := math.Abs(float64(w2.Data[i]-orig[i])) / math.Abs(float64(orig[i]))
		if rel > worst {
			worst = rel
		}
	}
	if worst < 0.05 {
		t.Errorf("per-tensor error on tiny channel = %v, expected large", worst)
	}
}

func TestQuantizeReleaseRestoresExactly(t *testing.T) {
	m := newTestMLP(10)
	ds := &vecDataset{n: 4, d: 8, batches: 4, seed: 3}
	l1 := m.seq.Modules[0].(*nn.Linear)
	orig := append([]float32(nil), l1.W.Data...)
	before := m.Run(ds.Batch(0))

	h := Quantize(m, ds, StandardFP8(E4M3))
	quantized := m.Run(ds.Batch(0))
	changed := false
	for i := range quantized.Data {
		if quantized.Data[i] != before.Data[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("quantization should perturb outputs")
	}
	if l1.QS.Input == nil {
		t.Error("input hook not installed")
	}

	h.Release()
	for i := range orig {
		if l1.W.Data[i] != orig[i] {
			t.Fatal("weights not restored exactly")
		}
	}
	if l1.QS.Input != nil {
		t.Error("hooks not cleared")
	}
	after := m.Run(ds.Batch(0))
	for i := range after.Data {
		if after.Data[i] != before.Data[i] {
			t.Fatal("outputs differ after release")
		}
	}
}

func TestQuantizeErrorOrdering(t *testing.T) {
	// On outlier-free data the MSE ordering should be
	// E3M4 < E4M3 < E5M2 (mantissa bits dominate).
	ds := &vecDataset{n: 8, d: 8, batches: 4, seed: 5}
	ref := newTestMLP(20)
	base := ref.Run(ds.Batch(5))
	mse := map[DType]float64{}
	for _, d := range []DType{E5M2, E4M3, E3M4} {
		m := newTestMLP(20)
		h := Quantize(m, ds, StandardFP8(d))
		out := m.Run(ds.Batch(5))
		mse[d] = tensor.MSE(base.Data, out.Data)
		h.Release()
	}
	if !(mse[E3M4] <= mse[E4M3] && mse[E4M3] <= mse[E5M2]) {
		t.Errorf("MSE ordering violated: E3M4=%v E4M3=%v E5M2=%v",
			mse[E3M4], mse[E4M3], mse[E5M2])
	}
}

func TestInt8SuffersFromOutliers(t *testing.T) {
	// With LLM-style emergent activation outliers (sparse ~0.2%, huge
	// ~40 sigma; cf. Dettmers et al. 2022), static INT8 loses to
	// static E4M3: the outliers stretch the uniform INT8 grid
	// quadratically while FP8's log-spaced grid keeps near-zero
	// density (Section 2).
	ds := &vecDataset{n: 128, d: 8, batches: 4, seed: 7, outlier: 40, frac: 0.002}
	ref := newTestMLP(30)
	base := ref.Run(ds.Batch(5))

	mFP8 := newTestMLP(30)
	h1 := Quantize(mFP8, ds, StandardFP8(E4M3))
	fp8Out := mFP8.Run(ds.Batch(5))
	h1.Release()

	mInt8 := newTestMLP(30)
	h2 := Quantize(mInt8, ds, StandardINT8(false))
	int8Out := mInt8.Run(ds.Batch(5))
	h2.Release()

	fp8MSE := tensor.MSE(base.Data, fp8Out.Data)
	int8MSE := tensor.MSE(base.Data, int8Out.Data)
	if fp8MSE >= int8MSE {
		t.Errorf("E4M3 MSE %v should beat INT8 MSE %v under outliers", fp8MSE, int8MSE)
	}
}

func TestFirstLastExclusion(t *testing.T) {
	m := newTestCNN(40)
	ds := &imgDataset{batches: 3, seed: 1}
	h := Quantize(m, ds, StandardFP8(E4M3))
	defer h.Release()
	if h.Report.FirstOp == "" || h.Report.LastOp == "" {
		t.Fatalf("first/last not identified: %+v", h.Report)
	}
	c1 := m.seq.Modules[0].(*nn.Conv2d)
	fc := m.seq.Modules[6].(*nn.Linear)
	if c1.QS.Input != nil {
		t.Error("first conv must stay FP32")
	}
	if fc.QS.Input != nil {
		t.Error("last linear must stay FP32")
	}
	c2 := m.seq.Modules[3].(*nn.Conv2d)
	if c2.QS.Input == nil {
		t.Error("middle conv must be quantized")
	}
}

func TestFirstLastEnabled(t *testing.T) {
	m := newTestCNN(41)
	ds := &imgDataset{batches: 3, seed: 2}
	h := Quantize(m, ds, StandardFP8(E3M4).WithFirstLast())
	defer h.Release()
	c1 := m.seq.Modules[0].(*nn.Conv2d)
	if c1.QS.Input == nil {
		t.Error("first conv should be quantized with WithFirstLast")
	}
}

func TestExtendedOpsCoverage(t *testing.T) {
	m := newTestCNN(42)
	ds := &imgDataset{batches: 3, seed: 3}
	h := Quantize(m, ds, StandardFP8(E4M3).WithExtendedOps())
	defer h.Release()
	bn := m.seq.Modules[1].(*nn.BatchNorm2d)
	if bn.QS.Output == nil {
		t.Error("extended scheme must quantize BatchNorm output")
	}
	if h.Report.QuantizedOps["BatchNorm"] != 1 {
		t.Errorf("report: %+v", h.Report.QuantizedOps)
	}
}

func TestBNCalibrationRecovers(t *testing.T) {
	m := newTestCNN(43)
	ds := &imgDataset{batches: 8, seed: 4}
	bn := m.seq.Modules[1].(*nn.BatchNorm2d)
	// Give BN deliberately wrong stats; calibration should fix them to
	// match the conv output distribution.
	bn.Mean[0] = 50
	origMean := bn.Mean[0]
	h := Quantize(m, ds, StandardFP8(E4M3).WithBNCalib(4))
	if bn.Mean[0] == origMean {
		t.Error("BN calibration did not update statistics")
	}
	if math.Abs(float64(bn.Mean[0])) > 5 {
		t.Errorf("recalibrated mean = %v, want near data mean", bn.Mean[0])
	}
	h.Release()
	if bn.Mean[0] != origMean {
		t.Error("release must restore BN statistics")
	}
}

func TestDirectE5M2NoCalibration(t *testing.T) {
	m := newTestMLP(50)
	// Dataset with zero batches would break calibration; Direct must
	// not need it.
	ds := &vecDataset{n: 2, d: 8, batches: 1, seed: 9}
	h := Quantize(m, ds, StandardFP8(E5M2))
	defer h.Release()
	l1 := m.seq.Modules[0].(*nn.Linear)
	if l1.QS.Input == nil {
		t.Fatal("direct hook missing")
	}
	// Direct E5M2 rounds values straight to the format grid.
	dst := make([]float32, 1)
	l1.QS.Input(dst, []float32{3.3})
	if float64(dst[0]) != fp8.E5M2.Quantize(3.3) {
		t.Errorf("direct quant = %v, want %v", dst[0], fp8.E5M2.Quantize(3.3))
	}
}

func TestSmoothQuantImprovesOutlierMSE(t *testing.T) {
	// A Linear with one huge activation channel: SmoothQuant should
	// reduce static-INT8 output error.
	build := func() (*testMLP, *vecDataset) {
		m := newTestMLP(60)
		ds := &vecDataset{n: 8, d: 8, batches: 4, seed: 11, outlier: 30, bigChannel: true}
		return m, ds
	}
	m1, ds := build()
	base := m1.Run(ds.Batch(5))

	m2, _ := build()
	h2 := Quantize(m2, ds, StandardINT8(false))
	plain := m2.Run(ds.Batch(5))
	h2.Release()

	m3, _ := build()
	h3 := Quantize(m3, ds, StandardINT8(false).WithSmoothQuant(0.5))
	smooth := m3.Run(ds.Batch(5))
	h3.Release()

	mseP := tensor.MSE(base.Data, plain.Data)
	mseS := tensor.MSE(base.Data, smooth.Data)
	if mseS >= mseP {
		t.Errorf("SmoothQuant MSE %v should beat plain %v", mseS, mseP)
	}
}

func TestSmoothQuantReleaseRestores(t *testing.T) {
	m := newTestMLP(61)
	ds := &vecDataset{n: 4, d: 8, batches: 2, seed: 12, outlier: 10}
	l1 := m.seq.Modules[0].(*nn.Linear)
	orig := append([]float32(nil), l1.W.Data...)
	h := Quantize(m, ds, StandardFP8(E4M3).WithSmoothQuant(0.5))
	h.Release()
	for i := range orig {
		if l1.W.Data[i] != orig[i] {
			t.Fatal("SmoothQuant-folded weights not restored")
		}
	}
}

func TestFallbackPathsRespected(t *testing.T) {
	m := newTestMLP(70)
	ds := &vecDataset{n: 4, d: 8, batches: 2, seed: 13}
	// Find the first linear's path.
	var path string
	nn.Walk(m.Root(), func(p string, mod nn.Module) {
		if _, ok := mod.(*nn.Linear); ok && path == "" {
			path = p
		}
	})
	h := Quantize(m, ds, StandardFP8(E4M3).WithFallback(path))
	defer h.Release()
	l1 := m.seq.Modules[0].(*nn.Linear)
	if l1.QS.Input != nil {
		t.Error("fallback path still quantized")
	}
	found := false
	for _, p := range h.Report.FallbackOps {
		if p == path {
			found = true
		}
	}
	if !found {
		t.Errorf("fallback not reported: %+v", h.Report.FallbackOps)
	}
}

func TestMixedFormatsRecipe(t *testing.T) {
	r := MixedFP8()
	if r.Act != E4M3 || r.Wgt != E3M4 {
		t.Fatalf("mixed recipe = %+v", r)
	}
	m := newTestMLP(80)
	ds := &vecDataset{n: 4, d: 8, batches: 2, seed: 14}
	l1 := m.seq.Modules[0].(*nn.Linear)
	h := Quantize(m, ds, r)
	defer h.Release()
	// Weights must sit on the E3M4 grid (after per-channel scaling):
	// check a channel round-trips under its own scale.
	am := ChannelAbsMax(l1.W, 0)
	for i := 0; i < l1.In; i++ {
		v := float64(l1.W.Data[i])
		scale := fp8.E3M4.MaxValue() / am[0]
		q := fp8.E3M4.Quantize(v*scale) / scale
		if math.Abs(q-v) > 1e-6*math.Abs(v)+1e-12 {
			t.Errorf("weight[%d]=%v not on E3M4 grid", i, v)
		}
	}
}

func TestAutoTunePassesEasyCase(t *testing.T) {
	m := newTestMLP(90)
	ds := &vecDataset{n: 8, d: 8, batches: 4, seed: 15}
	// Accuracy proxy: cosine similarity of outputs vs FP32 reference.
	ref := m.Run(ds.Batch(9)).Clone()
	eval := func() float64 {
		out := m.Run(ds.Batch(9))
		return tensor.CosineSimilarity(ref.Data, out.Data)
	}
	res := AutoTune(m, ds, eval, 1.0, DefaultCandidates(false), 0.01, 20)
	if !res.Passed {
		t.Fatalf("auto-tune failed on easy model: %+v", res.Trials)
	}
	if len(res.Trials) == 0 {
		t.Fatal("no trials recorded")
	}
	// Model must be restored.
	l1 := m.seq.Modules[0].(*nn.Linear)
	if l1.QS.Input != nil {
		t.Error("model not restored after tuning")
	}
}

func TestAutoTuneFallsBack(t *testing.T) {
	m := newTestMLP(91)
	ds := &vecDataset{n: 8, d: 8, batches: 4, seed: 16, outlier: 50}
	ref := m.Run(ds.Batch(9)).Clone()
	eval := func() float64 {
		out := m.Run(ds.Batch(9))
		return tensor.CosineSimilarity(ref.Data, out.Data)
	}
	// Force an impossible-to-pass ladder (INT8 only with tight goal) so
	// the fallback machinery engages.
	res := AutoTune(m, ds, eval, 1.0, []Recipe{StandardINT8(false)}, 1e-9, 12)
	if len(res.Trials) < 2 {
		t.Errorf("expected fallback trials, got %d", len(res.Trials))
	}
	if res.Passed {
		// Fine: fallback found a passing config; Best must have
		// fallback entries.
		if len(res.Best.Fallback) == 0 {
			t.Error("passed without any fallback on an impossible goal?")
		}
	}
}

func TestRecipeNamesAndDTypes(t *testing.T) {
	if StandardFP8(E4M3).Name() != "E4M3 Static" {
		t.Errorf("name = %q", StandardFP8(E4M3).Name())
	}
	if StandardFP8(E5M2).Name() != "E5M2 Direct" {
		t.Errorf("name = %q", StandardFP8(E5M2).Name())
	}
	if !E4M3.IsFP8() || INT8.IsFP8() || FP32.IsFP8() {
		t.Error("IsFP8 wrong")
	}
	if E3M4.Format().Name != "E3M4" {
		t.Error("Format mapping wrong")
	}
	if CalibKL.String() != "kl" || CalibMax.String() != "max" {
		t.Error("calib names wrong")
	}
}

func TestObserverFactory(t *testing.T) {
	if _, ok := NewObserver(CalibMax).(*MinMaxObserver); !ok {
		t.Error("max -> MinMaxObserver")
	}
	if _, ok := NewObserver(CalibKL).(*HistogramObserver); !ok {
		t.Error("kl -> HistogramObserver")
	}
	if _, ok := NewObserver(CalibPercentile).(*PercentileObserver); !ok {
		t.Error("percentile -> PercentileObserver")
	}
}

func TestChannelAbsMax(t *testing.T) {
	w := tensor.FromSlice([]float32{1, -3, 0.5, 2}, 2, 2)
	am := ChannelAbsMax(w, 0)
	if am[0] != 3 || am[1] != 2 {
		t.Errorf("channel absmax = %v", am)
	}
}
