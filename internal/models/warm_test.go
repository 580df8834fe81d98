package models

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// warmMemoModels cover BatchNorm in each zoo topology: a residual
// stack, dense concatenation, SE + depthwise inverted residuals,
// grouped convolutions with channel shuffle, and the U-Net skip graph.
var warmMemoModels = []string{
	"cifar_resnet20", "densenet121", "mobilenet_v3", "shufflenet_v2", "unet_carvana",
}

// buildRaw builds name as its registry builder does, before any
// warm-up: the random initial BatchNorm statistics.
func buildRaw(name string) *Network { return registry[name](nameSeed(name)) }

// warmUps counts the memoized BatchNorm warm-ups.
func warmUps() int {
	n := 0
	warmMemo.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

func bnStats(n *Network) []float32 { return nn.SnapshotBatchNorms(nn.BatchNorms(n.root), nil) }

// bitEqual compares tensors bit for bit (NaN-safe, distinguishes ±0).
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

// statsBitEqual compares BatchNorm statistics bit for bit.
func statsBitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// usedPlan returns a plan whose chunks another model's forwards
// already carved and left dirty, as a sweep cell's plan is when the
// next cell builds its model on it.
func usedPlan(t *testing.T) *nn.Plan {
	t.Helper()
	other, err := Build("googlenet")
	if err != nil {
		t.Fatal(err)
	}
	p := nn.NewPlan(nil)
	other.InstallPlan(p)
	for i := 0; i < 2; i++ {
		other.Run(other.Data.Batch(i))
	}
	other.InstallPlan(nil)
	return p
}

// TestWarmMemoMatchesUnplannedWarm pins the memoized, planned warm-up to
// the per-build heap warm-up it replaced: a cold Build, a memoized one,
// a cold BuildOn on a plan another model already used, and a raw
// network warmed by plain WarmBatchNorms end with bit-identical
// BatchNorm statistics and forward outputs.
func TestWarmMemoMatchesUnplannedWarm(t *testing.T) {
	p := usedPlan(t)
	for _, name := range warmMemoModels {
		name := name
		t.Run(name, func(t *testing.T) {
			ClearMemo()
			t.Cleanup(ClearMemo)
			on, err := BuildOn(name, p)
			if err != nil {
				t.Fatal(err)
			}
			ClearMemo()
			cold, err := Build(name)
			if err != nil {
				t.Fatal(err)
			}
			if n := warmUps(); n != 1 {
				t.Fatalf("cold Build left %d memo entries, want 1", n)
			}
			// Build's own path, with a warm-up that must not run.
			memo := buildRaw(name)
			warmMemoized(memo, func(*Network) { t.Fatal("memoized Build re-ran the warm-up") })

			ref := buildRaw(name)
			if statsBitEqual(bnStats(ref), bnStats(cold)) {
				t.Fatal("the warm-up left the initial statistics unchanged")
			}
			WarmBatchNorms(ref, warmBatches)
			want := bnStats(ref)
			x := ref.Data.Batch(1)
			wantOut := ref.Run(x)
			for _, c := range []struct {
				label string
				net   *Network
			}{{"cold", cold}, {"memoized", memo}, {"cold on a used plan", on}} {
				if !statsBitEqual(bnStats(c.net), want) {
					t.Errorf("%s Build: BatchNorm statistics differ from the unplanned warm-up", c.label)
				}
				if !bitEqual(c.net.Run(x), wantOut) {
					t.Errorf("%s Build: forward output differs from the unplanned warm-up", c.label)
				}
			}
		})
	}
}

// TestConcurrentBuildsWarmOnce races Builds of one model on a cold memo
// (run it under -race): they share one memo entry and end with
// bit-identical statistics.
func TestConcurrentBuildsWarmOnce(t *testing.T) {
	const name = "cifar_resnet20"
	ClearMemo()
	t.Cleanup(ClearMemo)
	nets := make([]*Network, 4)
	var wg sync.WaitGroup
	for i := range nets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := Build(name)
			if err != nil {
				t.Error(err)
				return
			}
			nets[i] = n
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := warmUps(); n != 1 {
		t.Errorf("%d concurrent Builds left %d memo entries, want 1", len(nets), n)
	}
	want := bnStats(nets[0])
	for i, n := range nets[1:] {
		if !statsBitEqual(bnStats(n), want) {
			t.Errorf("Build %d: statistics differ from Build 0", i+1)
		}
	}
}

// TestWarmPanicLeavesNoEntry checks that a panicking warm-up propagates
// and leaves no statistics-less entry behind: the next Build warms anew.
func TestWarmPanicLeavesNoEntry(t *testing.T) {
	const name = "cifar_resnet20"
	ClearMemo()
	t.Cleanup(ClearMemo)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the warm-up panic was swallowed")
			}
		}()
		warmMemoized(buildRaw(name), func(*Network) { panic("injected warm-up failure") })
	}()
	if n := warmUps(); n != 0 {
		t.Fatalf("a panicked warm-up left %d memo entries", n)
	}
	net, err := Build(name)
	if err != nil {
		t.Fatal(err)
	}
	ref := buildRaw(name)
	WarmBatchNorms(ref, warmBatches)
	if !statsBitEqual(bnStats(net), bnStats(ref)) {
		t.Error("the Build after a panicked warm-up has unwarmed statistics")
	}
}

// TestBuildOnWarmsInCellPlan checks that a cold BuildOn warms its
// BatchNorms on the plan it is given: on a plan a cell of the model
// already grew, the build allocates fewer heap bytes than on a fresh
// plan, whose chunks the warm-up must allocate.
func TestBuildOnWarmsInCellPlan(t *testing.T) {
	const name = "cifar_resnet20"
	ClearMemo()
	t.Cleanup(ClearMemo)
	grown := nn.NewPlan(nil)
	net, err := BuildOn(name, grown)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		net.Run(net.Data.Batch(i))
	}
	// Least heap growth over 3 cold builds on one P, so a stray
	// allocation elsewhere in the process fails nothing.
	buildBytes := func(p func() *nn.Plan) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			ClearMemo()
			plan := p()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := BuildOn(name, plan); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
		}
		return least
	}
	onGrown := buildBytes(func() *nn.Plan { return grown })
	onFresh := buildBytes(func() *nn.Plan { return nn.NewPlan(nil) })
	if onGrown >= onFresh {
		t.Errorf("cold BuildOn(%s): %d heap bytes on a grown plan, not fewer than %d on a fresh one", name, onGrown, onFresh)
	}
	t.Logf("cold BuildOn(%s): %d heap bytes on a grown plan, %d on a fresh one", name, onGrown, onFresh)
}
