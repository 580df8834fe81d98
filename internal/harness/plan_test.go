package harness

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"fp8quant/internal/data"
	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
	"fp8quant/internal/nn"
	"fp8quant/internal/quant"
	"fp8quant/internal/tensor"
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

// planOn installs an idle plan on net, as withModelCell does, and
// returns the release that uninstalls it and puts it back.
func planOn(net *models.Network) func() {
	p := takePlan()
	net.InstallPlan(p)
	return func() {
		net.InstallPlan(nil)
		putPlan(p)
	}
}

// idlePlans returns the free list's plans.
func idlePlans() []*nn.Plan {
	plansMu.Lock()
	defer plansMu.Unlock()
	return append([]*nn.Plan(nil), freePlans...)
}

// leastGrowth returns the least growth of the heap counter stat reads
// across f, over 3 repetitions on one P, each after its own call of
// setup (outside the window; nil for none). A runtime or other
// goroutine's allocation that lands in one window then fails no test.
func leastGrowth(stat func(*runtime.MemStats) uint64, setup, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		if setup != nil {
			setup()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		least = min(least, stat(&m1)-stat(&m0))
	}
	return least
}

// mallocs counts the heap allocations f performs (leastGrowth).
func mallocs(setup, f func()) uint64 {
	return leastGrowth(func(m *runtime.MemStats) uint64 { return m.Mallocs }, setup, f)
}

// allocBytes counts the heap bytes f allocates (leastGrowth).
func allocBytes(setup, f func()) uint64 {
	return leastGrowth(func(m *runtime.MemStats) uint64 { return m.TotalAlloc }, setup, f)
}

// TestWithPlanReusesAcrossModels runs two consecutive cells of
// different token models: the second takes the plan the first returned
// to the free list, and its forwards allocate nothing, because the
// chunks the first cell's larger model appended already hold them.
// Every repetition starts from a cold plan, so the count is always the
// second cell's first use of it.
func TestWithPlanReusesAcrossModels(t *testing.T) {
	withCleanCache(t)
	type cell struct {
		net     *models.Network
		batches []data.Sample
	}
	var cells []cell
	for _, name := range []string{"bloom_176b", "bert_base_mrpc"} {
		net, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		c := cell{net: net}
		for b := evalx.EvalStart; b < evalx.EvalEnd; b++ {
			c.batches = append(c.batches, net.Data.Batch(b))
		}
		cells = append(cells, c)
	}
	forwards := func(c cell) {
		for _, s := range c.batches {
			c.net.Run(s)
		}
	}
	var first *nn.Plan
	release := func() {}
	n := mallocs(func() {
		release()
		clearPlans()
		r := planOn(cells[0].net)
		if n := len(idlePlans()); n != 0 {
			t.Fatalf("%d plans idle while the first cell holds one", n)
		}
		forwards(cells[0])
		r()
		plans := idlePlans()
		if len(plans) != 1 {
			t.Fatalf("%d idle plans after the first cell, want 1", len(plans))
		}
		first = plans[0]
		release = planOn(cells[1].net)
	}, func() { forwards(cells[1]) })
	release()
	plans := idlePlans()
	if len(plans) != 1 {
		t.Fatalf("%d idle plans after the second cell, want 1", len(plans))
	}
	if plans[0] != first {
		t.Error("the second cell did not reuse the first cell's plan")
	}
	if n != 0 {
		t.Errorf("bert_base_mrpc: forwards on the reused plan allocated %d times, want 0", n)
	}
}

// weightBytes returns the bytes of net's distinct parametric weights:
// every weight a token model's E4M3 cell rounds, so every FP32 master
// its Handle holds.
func weightBytes(net *models.Network) uint64 {
	seen := map[*tensor.Tensor]bool{}
	var n uint64
	nn.Walk(net.Root(), func(_ string, m nn.Module) {
		if p, ok := m.(nn.Parametric); ok && !seen[p.WeightTensor()] {
			seen[p.WeightTensor()] = true
			n += 4 * uint64(p.WeightTensor().Len())
		}
	})
	return n
}

// TestWarmCellMastersLiveInPlan runs the same token-model cell on a
// warm plan and network: its FP32 masters are carved from the plan's
// cell arena, so the cell allocates fewer heap bytes than the masters
// alone occupy.
func TestWarmCellMastersLiveInPlan(t *testing.T) {
	withCleanCache(t)
	const name = "llama_13b"
	cell := func() {
		evalModelCell(name, "E4M3", func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E4M3) })
	}
	cell()
	net, err := models.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	masters := weightBytes(net)
	if got := allocBytes(nil, cell); got >= masters {
		t.Errorf("a warm %s cell allocated %d heap bytes, not fewer than its %d bytes of FP32 masters", name, got, masters)
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
				release := planOn(net)
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

// TestWithModelCellReturnsPlan checks withModelCell's one release on
// each path: a model that fails to build, a cell that panics and a cell
// that returns all give their plan back, so one plan serves every cell
// in turn, and no network keeps it installed.
func TestWithModelCellReturnsPlan(t *testing.T) {
	withCleanCache(t)
	const name = "cifar_resnet20"
	var nets []*models.Network
	paths := []struct {
		label string
		cell  func()
	}{
		{"failed build", func() {
			r := withModelCell("no_such_model", "E4M3", func(*models.Network, evalx.Reference) evalx.Result {
				t.Fatal("eval ran for a model that failed to build")
				return evalx.Result{}
			})
			if r.Err == "" {
				t.Error("a failed build did not yield a Failed result")
			}
		}},
		{"panicking cell", func() {
			defer func() {
				if recover() == nil {
					t.Error("the cell did not panic")
				}
			}()
			withModelCell(name, "E4M3", func(net *models.Network, _ evalx.Reference) evalx.Result {
				nets = append(nets, net)
				panic("cell failed")
			})
		}},
		{"returning cell", func() {
			withModelCell(name, "E4M3", func(net *models.Network, _ evalx.Reference) evalx.Result {
				nets = append(nets, net)
				return evalx.Result{}
			})
		}},
	}
	var first *nn.Plan
	for _, c := range paths {
		c.cell()
		plans := idlePlans()
		if len(plans) != 1 {
			t.Fatalf("%s: %d idle plans, want 1", c.label, len(plans))
		}
		if first == nil {
			first = plans[0]
		} else if plans[0] != first {
			t.Errorf("%s: the cell did not reuse the plan the first cell returned", c.label)
		}
	}
	for i, net := range nets {
		if net.CellArena() != nil {
			t.Errorf("network %d kept its cell's plan installed", i)
		}
	}
	if n := idleNetsOf(name); n != 1 {
		t.Errorf("%d idle networks of %s, want the returning cell's 1", n, name)
	}
}
