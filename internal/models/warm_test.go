package models

import (
	"math"
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

func bnStats(n *Network) [][]float32 { return nn.SnapshotBatchNorms(nn.BatchNorms(n.root)) }

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
func statsBitEqual(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestWarmMemoMatchesUnplannedWarm pins the memoized, planned warm-up to
// the per-build heap warm-up it replaced: a cold Build, a memoized one
// and a raw network warmed by plain WarmBatchNorms end with bit-identical
// BatchNorm statistics and forward outputs.
func TestWarmMemoMatchesUnplannedWarm(t *testing.T) {
	for _, name := range warmMemoModels {
		name := name
		t.Run(name, func(t *testing.T) {
			ClearMemo()
			t.Cleanup(ClearMemo)
			cold, err := Build(name)
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := MemoLens(); n != 1 {
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
			}{{"cold", cold}, {"memoized", memo}} {
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
	if n, _ := MemoLens(); n != 1 {
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
	if n, _ := MemoLens(); n != 0 {
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
