package diffusion

import (
	"math"
	"slices"
	"testing"

	"fp8quant/internal/data"
	"fp8quant/internal/nn"
	"fp8quant/internal/quant"
)

func TestDenoiserShapes(t *testing.T) {
	p := NewPipeline(1, 2)
	s := p.CalibData().Batch(0)
	out := p.Run(s)
	if out.Shape[1] != LatentC || out.Shape[2] != LatentH {
		t.Fatalf("denoiser output shape %v", out.Shape)
	}
}

// TestLatentBatchIntoReusesSample holds the calibration latents'
// BatchInto to Batch: a Sample that held batch 1 gets batch 5's bytes in
// its own tensor, and a warm Sample allocates nothing.
func TestLatentBatchIntoReusesSample(t *testing.T) {
	d := NewPipeline(1, 2).CalibData()
	var s data.Sample
	d.BatchInto(1, &s)
	x := s.X
	d.BatchInto(5, &s)
	want := d.Batch(5).X
	if s.X != x || !slices.Equal(s.X.Shape, want.Shape) || !slices.Equal(s.X.Data, want.Data) {
		t.Error("BatchInto(5) into a reused Sample differs from Batch(5) or replaced its tensor")
	}
	if n := testing.AllocsPerRun(5, func() { d.BatchInto(3, &s) }); n != 0 {
		t.Errorf("BatchInto into a warm Sample allocates %.0f objects, want 0", n)
	}
}

// TestDenoiserPlanned runs the denoiser under an execution plan: its
// output is the unplanned forward's bytes, and a warm planned forward
// allocates nothing.
func TestDenoiserPlanned(t *testing.T) {
	p := NewPipeline(4, 2)
	x := p.CalibData().Batch(0).X
	want := p.Net.Forward(nil, x)
	plan := nn.NewPlan(p.Net)
	for cycle := 0; cycle < 3; cycle++ {
		got := plan.Forward(x)
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("cycle %d: planned output differs at %d: %g vs %g", cycle, i, got.Data[i], want.Data[i])
			}
		}
	}
	if avg := testing.AllocsPerRun(5, func() { plan.Forward(x) }); avg != 0 {
		t.Errorf("planned denoiser allocates %.1f times per run, want 0", avg)
	}
}

func TestGenerateDeterministicAndConditioned(t *testing.T) {
	p := NewPipeline(2, 2)
	a := p.Generate(3)
	b := p.Generate(3)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("generation must be deterministic")
		}
	}
	if a.Shape[0] != 6 { // 3 images x 2 prompts
		t.Fatalf("generated %d rows, want 6", a.Shape[0])
	}
	// Different prompts produce different feature statistics.
	dim := a.Shape[1]
	d := 0.0
	for i := 0; i < dim; i++ {
		d += float64((a.Data[i] - a.Data[3*dim+i]) * (a.Data[i] - a.Data[3*dim+i]))
	}
	if d == 0 {
		t.Error("prompt conditioning has no effect")
	}
}

func TestFIDSelfZeroAndQuantOrdering(t *testing.T) {
	p := NewPipeline(3, 2)
	ref := p.Generate(16)
	if got := FIDAgainst(ref, ref); got != 0 {
		t.Fatalf("FID(self) = %v", got)
	}

	fid := func(r quant.Recipe) float64 {
		r.CalibBatches = 4
		h := quant.Quantize(p, p.CalibData(), r)
		gen := p.Generate(16)
		h.Release()
		return FIDAgainst(ref, gen)
	}
	e3 := fid(quant.StandardFP8(quant.E3M4))
	e5 := fid(quant.StandardFP8(quant.E5M2))
	if e3 <= 0 || e5 <= 0 {
		t.Fatalf("quantized FID should be positive: e3=%v e5=%v", e3, e5)
	}
	// Figure 6 shape: the high-precision format tracks FP32 closer
	// than the low-mantissa format.
	if e3 >= e5 {
		t.Errorf("FID(E3M4)=%v should be < FID(E5M2)=%v", e3, e5)
	}
	// Model must be fully restored after Release.
	again := p.Generate(16)
	for i := range ref.Data {
		if again.Data[i] != ref.Data[i] {
			t.Fatal("pipeline not restored after Release")
		}
	}
}
