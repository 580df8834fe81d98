package quant

import (
	"math"
	"testing"

	"fp8quant/internal/fp8"
	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

func TestHistogramObserverWaitsForNonZero(t *testing.T) {
	o := NewHistogramObserver(64)
	o.Observe([]float32{0, 0, 0})
	if o.AbsMax() != 0 {
		t.Errorf("absmax of zeros = %v", o.AbsMax())
	}
	// Thresholds degrade gracefully with no histogram.
	if th := o.KLThreshold(func(t float64) Quantizer { return fp8.NewInt8Symmetric(t) }); th != 0 {
		t.Errorf("KL threshold with no data = %v", th)
	}
	o.Observe([]float32{1, -2})
	if o.AbsMax() != 2 {
		t.Errorf("absmax = %v", o.AbsMax())
	}
}

func TestHistogramPinsWidthOnFirstData(t *testing.T) {
	o := NewHistogramObserver(64)
	o.Observe([]float32{1})
	// Later larger values clamp into the top bin but min/max tracking
	// still sees them.
	o.Observe([]float32{100})
	if o.AbsMax() != 100 {
		t.Errorf("absmax = %v", o.AbsMax())
	}
}

func TestPercentileObserverReservoirBounded(t *testing.T) {
	o := NewPercentileObserver(99)
	big := make([]float32, 100000)
	for i := range big {
		big[i] = float32(i)
	}
	o.Observe(big)
	if len(o.reservoir) > reservoirCap {
		t.Errorf("reservoir grew to %d", len(o.reservoir))
	}
}

func TestCalibratedThresholdFallsBackToAbsMax(t *testing.T) {
	// KL method with a MinMax observer (not histogram) falls back.
	o := NewMinMaxObserver()
	o.Observe([]float32{3, -4})
	th := CalibratedThreshold(o, CalibKL, func(t float64) Quantizer {
		return fp8.NewInt8Symmetric(t)
	})
	if th != 4 {
		t.Errorf("fallback threshold = %v, want 4", th)
	}
}

func TestNewScaledFP8DegenerateThreshold(t *testing.T) {
	q := NewScaledFP8(fp8.E4M3, 0)
	if got := q.Quantize(0.5); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("degenerate scaled quantizer returned %v", got)
	}
}

func TestStaticFP8FuncDegenerate(t *testing.T) {
	fn := siteHook(Recipe{Act: E4M3, Approach: Static}, 0, 0, 0)
	dst := make([]float32, 2)
	fn(dst, []float32{1.5, -2.5})
	if dst[0] != 1.5 || dst[1] != -2.5 {
		t.Error("zero-threshold func must be identity")
	}
}

func TestQuantizeWeightPerChannelZeroChannel(t *testing.T) {
	w := tensor.FromSlice([]float32{0, 0, 1, 2}, 2, 2)
	QuantizeWeightPerChannel(w, 0, E4M3)
	if w.Data[0] != 0 || w.Data[1] != 0 {
		t.Error("all-zero channel must stay zero")
	}
}

func TestQuantizeFP32RecipeIsNoop(t *testing.T) {
	m := newTestMLP(99)
	ds := &vecDataset{n: 2, d: 8, batches: 1, seed: 1}
	before := m.Run(ds.Batch(0)).Clone()
	h := Quantize(m, ds, Recipe{})
	after := m.Run(ds.Batch(0))
	for i := range after.Data {
		if after.Data[i] != before.Data[i] {
			t.Fatal("FP32 recipe must not modify the model")
		}
	}
	h.Release()
}

// TestWeightOnlyRecipe quantizes weights while keeping activations in
// FP32 (Act: FP32, Wgt: E3M4): the weights round, no hooks install.
func TestWeightOnlyRecipe(t *testing.T) {
	m := newTestMLP(98)
	ds := &vecDataset{n: 2, d: 8, batches: 2, seed: 2}
	l1 := m.seq.Modules[0].(*nn.Linear)
	orig := append([]float32(nil), l1.W.Data...)
	r := Recipe{Act: FP32, Wgt: E3M4, Approach: Static, CalibBatches: 1}
	h := Quantize(m, ds, r)
	if l1.QS.Input != nil {
		t.Error("weight-only recipe must not install activation hooks")
	}
	changed := false
	for i := range orig {
		if l1.W.Data[i] != orig[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("weights were not rounded")
	}
	h.Release()
	for i := range orig {
		if l1.W.Data[i] != orig[i] {
			t.Fatal("weights not restored")
		}
	}
}
