package harness

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"fp8quant/internal/data"
	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
	"fp8quant/internal/nn"
	"fp8quant/internal/quant"
)

// TestWithPlanPreservesResults runs the same sweep cell with and
// without a pooled plan installed: results must be deeply equal (the
// plan contract is byte-identical math, so even float fields match
// exactly). The pooled cell is run twice to cover arena and network
// reuse across cells, and a third time behind a ClearMemo process
// boundary, whose cold Build re-runs the BatchNorm warm-up and
// regenerates the model's batches.
func TestWithPlanPreservesResults(t *testing.T) {
	const name = "cifar_resnet20"
	recipe := quant.StandardFP8(quant.E4M3)
	withCleanCache(t)

	netU, err := models.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	want := evalx.EvaluateWithRef(netU, recipe, true, modelRef(name, netU))

	for cell := 0; cell < 3; cell++ {
		if cell == 2 {
			if _, sets := models.MemoLens(); sets == 0 {
				t.Fatal("the cells left no memoized batch set")
			}
			if idleNetsOf(name) == 0 {
				t.Fatal("the cells left no idle network")
			}
			ClearMemo()
			if warm, sets := models.MemoLens(); warm != 0 || sets != 0 {
				t.Fatalf("ClearMemo kept %d memoized BatchNorm warm-ups and %d batch sets", warm, sets)
			}
			if n := idleNetsOf(name); n != 0 {
				t.Fatalf("ClearMemo kept %d idle networks", n)
			}
		}
		got := evalModelCell(name, "E4M3", func(*models.Network) quant.Recipe { return recipe })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %d: planned result differs:\n got %+v\nwant %+v", cell, got, want)
		}
	}
}

// idlePlans returns the free list's plans.
func idlePlans() []*nn.Plan {
	plansMu.Lock()
	defer plansMu.Unlock()
	return append([]*nn.Plan(nil), freePlans...)
}

// mallocs counts the heap allocations f performs, on one P so that no
// other goroutine's allocations are counted.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestWithPlanReusesAcrossModels runs two consecutive cells of
// different token models: the second takes the plan the first returned
// to the free list, and its forwards allocate nothing, because the
// chunks the first cell's larger model appended already hold them.
func TestWithPlanReusesAcrossModels(t *testing.T) {
	withCleanCache(t)
	var first *nn.Plan
	for i, name := range []string{"bloom_176b", "bert_base_mrpc"} {
		net, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		var batches []data.Sample
		for b := evalx.EvalStart; b < evalx.EvalEnd; b++ {
			batches = append(batches, net.Data.Batch(b))
		}
		release := withPlan(net)
		if n := len(idlePlans()); n != 0 {
			t.Fatalf("cell %d: %d plans idle while the cell holds one", i, n)
		}
		n := mallocs(func() {
			for _, s := range batches {
				net.Run(s)
			}
		})
		release()
		plans := idlePlans()
		if len(plans) != 1 {
			t.Fatalf("cell %d: %d idle plans after release, want 1", i, len(plans))
		}
		if i == 0 {
			first = plans[0]
			continue
		}
		if plans[0] != first {
			t.Error("the second cell did not reuse the first cell's plan")
		}
		if n != 0 {
			t.Errorf("%s: forwards on the reused plan allocated %d times, want 0", name, n)
		}
	}
}

// TestWithPlanConcurrentCells runs cells on several goroutines at once:
// each holds its own plan, so the free list ends with at most one plan
// per goroutine, every one distinct.
func TestWithPlanConcurrentCells(t *testing.T) {
	withCleanCache(t)
	const workers, cells = 4, 3
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for c := 0; c < cells; c++ {
				net, err := models.Build("tinybert_mrpc")
				if err != nil {
					t.Error(err)
					return
				}
				release := withPlan(net)
				net.Run(net.Data.Batch(c))
				release()
			}
		}()
	}
	wg.Wait()
	plans := idlePlans()
	if len(plans) == 0 || len(plans) > workers {
		t.Fatalf("%d idle plans after %d concurrent workers, want 1..%d", len(plans), workers, workers)
	}
	seen := map[*nn.Plan]bool{}
	for _, p := range plans {
		if seen[p] {
			t.Fatal("a plan is on the free list twice")
		}
		seen[p] = true
	}
}
