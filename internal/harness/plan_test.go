package harness

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"fp8quant/internal/data"
	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
	"fp8quant/internal/nn"
	"fp8quant/internal/quant"
	"fp8quant/internal/tensor"
)

// TestWithPlanPreservesResults runs the same sweep cell with and
// without a session's plan installed: results must be deeply equal
// (the plan contract is byte-identical math, so even float fields
// match exactly). The cell runs twice on one session to cover arena
// and network reuse across cells, and a third time on a new session
// behind a ClearMemo process boundary, whose cold Build re-runs the
// BatchNorm warm-up and whose first cell recomputes the FP32 reference.
func TestWithPlanPreservesResults(t *testing.T) {
	const name = "cifar_resnet20"
	recipe := quant.StandardFP8(quant.E4M3)
	withCleanCache(t)

	netU, err := models.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	want := evalx.EvaluateOn(netU, recipe, true, evalx.NewSplit(modelRef(name, netU)))

	s := new(Session)
	for cell := 0; cell < 3; cell++ {
		if cell == 2 {
			ClearMemo()
			if n := cachedRefs(); n != 0 {
				t.Fatalf("ClearMemo kept %d cached references", n)
			}
			s = new(Session)
		}
		got := evalModelCell(s, name, "E4M3", func(*models.Network) quant.Recipe { return recipe })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %d: planned result differs:\n got %+v\nwant %+v", cell, got, want)
		}
	}
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

// TestWithPlanReusesAcrossModels runs a token model's forwards on a
// session, then moves the session to a smaller token model: the session
// drops the first network, builds the second on the same plan, and the
// second model's forwards allocate nothing, because the chunks the
// first model's forwards appended already hold them. Every repetition
// starts from a new session, so the count is always the second model's
// first use of the plan.
func TestWithPlanReusesAcrossModels(t *testing.T) {
	withCleanCache(t)
	names := []string{"bloom_176b", "bert_base_mrpc"}
	var (
		s           *Session
		batches     []data.Sample
		first, next *models.Network
	)
	n := mallocs(func() {
		s = new(Session)
		for _, name := range names {
			net, err := s.network(name)
			if err != nil {
				t.Fatal(err)
			}
			batches = batches[:0]
			for b := evalx.EvalStart; b < evalx.EvalEnd; b++ {
				batches = append(batches, net.Data.Batch(b))
			}
			if name == names[0] {
				first = net
				for _, b := range batches {
					net.Run(b)
				}
			}
			next = net
		}
	}, func() {
		for _, b := range batches {
			next.Run(b)
		}
	})
	if s.net != next || next == first {
		t.Fatal("the session does not hold the second model's own network")
	}
	if next.CellArena() != first.CellArena() {
		t.Fatal("the second model's network is not on the first one's plan")
	}
	if n != 0 {
		t.Errorf("%s: forwards on the plan %s grew allocated %d times, want 0", names[1], names[0], n)
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

// TestWarmCellMastersLiveInPlan runs the same token-model cell again on
// its session's warm plan and network: its FP32 masters are carved from the plan's
// cell arena, so the cell allocates fewer heap bytes than the masters
// alone occupy.
func TestWarmCellMastersLiveInPlan(t *testing.T) {
	withCleanCache(t)
	const name = "llama_13b"
	var s Session
	cell := func() {
		evalModelCell(&s, name, "E4M3", func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E4M3) })
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

// TestWithModelCellReturnsPlan checks withModelCell on each path: a
// model that fails to build, a cell that panics and a cell that returns
// all leave the session its one plan, so one plan serves every cell in
// turn, and only the returning cell's network stays in the session.
func TestWithModelCellReturnsPlan(t *testing.T) {
	withCleanCache(t)
	const name = "cifar_resnet20"
	var s Session
	var nets []*models.Network
	paths := []struct {
		label string
		cell  func()
	}{
		{"failed build", func() {
			r := withModelCell(&s, "no_such_model", "E4M3", func(*models.Network, *evalx.Split) evalx.Result {
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
			withModelCell(&s, name, "E4M3", func(net *models.Network, _ *evalx.Split) evalx.Result {
				nets = append(nets, net)
				panic("cell failed")
			})
		}},
		{"returning cell", func() {
			withModelCell(&s, name, "E4M3", func(net *models.Network, _ *evalx.Split) evalx.Result {
				nets = append(nets, net)
				return evalx.Result{}
			})
		}},
	}
	var first *nn.Plan
	for _, c := range paths {
		c.cell()
		if s.plan == nil {
			t.Fatalf("%s: the session has no plan", c.label)
		}
		if first == nil {
			first = s.plan
		} else if s.plan != first {
			t.Errorf("%s: the session replaced its plan", c.label)
		}
	}
	if len(nets) != 2 || nets[0] == nets[1] {
		t.Fatal("the returning cell did not rebuild after the panicking one")
	}
	if s.net != nets[1] || nets[1].CellArena() != first.Cell() {
		t.Error("the session does not hold the returning cell's network on its plan")
	}
}
