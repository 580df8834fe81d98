package models

import (
	"math"
	"testing"

	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// bitEqual compares tensors bit-for-bit (NaN-safe, distinguishes ±0 —
// stricter than float equality, as the plan contract demands).
func bitEqual(a, b *tensor.Tensor) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// planModels covers every plannable forward topology: plain Sequential
// chains (VGG), residual and SE blocks, concat blocks (Inception, Fire,
// Dense), channel shuffle, depthwise/inverted residuals, ViT attention
// stacks (global and windowed), Conv1d+transformer audio nets, and the
// U-Net skip-connection graph in both norm styles.
var planModels = []string{
	"vgg11", "cifar_resnet20", "se_resnext50", "googlenet", "squeezenet",
	"densenet121", "shufflenet_v2", "mobilenet_v3", "efficientnet_b0",
	"vit_small", "swin_tiny", "wav2vec2_librispeech",
	"unet_carvana", "stable_diffusion_unet",
}

// TestPlannedForwardBitIdentical proves the tentpole contract: a planned
// forward is byte-for-byte the unplanned forward, over several cycles
// (so arena reuse, not just the recording cycle, is exercised).
func TestPlannedForwardBitIdentical(t *testing.T) {
	for _, name := range planModels {
		name := name
		t.Run(name, func(t *testing.T) {
			net, err := Build(name)
			if err != nil {
				t.Fatal(err)
			}
			if !net.Plannable() {
				t.Fatalf("%s: expected plannable", name)
			}
			batches := net.Data.Batches()
			if batches > 3 {
				batches = 3
			}
			want := make([]*tensor.Tensor, batches)
			for i := 0; i < batches; i++ {
				want[i] = net.Run(net.Data.Batch(i)).Clone()
			}
			s0 := net.Data.Batch(0)
			plan := nn.Compile(net.Root(), s0.X.Shape...)
			net.InstallPlan(plan)
			defer net.InstallPlan(nil)
			for cycle := 0; cycle < 3; cycle++ {
				for i := 0; i < batches; i++ {
					got := net.Run(net.Data.Batch(i))
					if !bitEqual(got, want[i]) {
						t.Fatalf("%s: planned forward differs from unplanned (cycle %d batch %d)", name, cycle, i)
					}
				}
			}
		})
	}
}

// TestPlanSteadyStateZeroAlloc checks the perf contract on every
// plannable topology: after the recording cycles, a planned forward
// performs no heap allocations.
func TestPlanSteadyStateZeroAlloc(t *testing.T) {
	for _, name := range planModels {
		net, err := Build(name)
		if err != nil {
			t.Fatal(err)
		}
		s := net.Data.Batch(0)
		plan := nn.Compile(net.Root(), s.X.Shape...)
		net.InstallPlan(plan)
		// One more warm forward: slabs grow lazily at Reset, so the
		// first post-Compile forward may still allocate once.
		net.Run(s)
		avg := testing.AllocsPerRun(5, func() { net.Run(s) })
		net.InstallPlan(nil)
		if avg != 0 {
			t.Errorf("%s: planned forward allocates %.1f times per run, want 0", name, avg)
		}
	}
}

// TestInstallPlanRestoresUnplanned checks nil uninstall falls back to
// the original fwd closure.
func TestInstallPlanRestoresUnplanned(t *testing.T) {
	net, err := Build("cifar_resnet20")
	if err != nil {
		t.Fatal(err)
	}
	s := net.Data.Batch(0)
	want := net.Run(s).Clone()
	plan := nn.Compile(net.Root(), s.X.Shape...)
	net.InstallPlan(plan)
	net.Run(s)
	net.InstallPlan(nil)
	got := net.Run(s)
	if !bitEqual(got, want) {
		t.Fatal("uninstalling plan changed outputs")
	}
	if plan.Footprint() == 0 {
		t.Fatal("compiled plan reports zero footprint")
	}
}
