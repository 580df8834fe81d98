package harness

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
	"fp8quant/internal/nn"
	"fp8quant/internal/quant"
	"fp8quant/internal/tensor"
)

// restoreFamilies is one zoo model per builder family.
var restoreFamilies = []string{
	"cifar_resnet20",       // BatchNorm CNN
	"shufflenet_v2",        // depthwise CNN
	"tinybert_mrpc",        // encoder
	"gpt2_wikitext",        // decoder
	"llama_7b",             // Llama decoder
	"t5_small_cnndm",       // encoder-decoder
	"dlrm_criteo",          // embedding bags
	"wav2vec2_librispeech", // audio
	"deit_tiny",            // ViT
	"unet_carvana",         // UNet
}

// TestReleaseRestoresZooNetworks is the contract a model session
// (session.go) rests on: after Quantize, an eval forward and Release,
// a zoo network equals a fresh models.Build bit for bit — every weight,
// bias, BatchNorm statistic, norm gamma/beta and QState — whatever
// recipes it ran before. Each recipe runs on the same network in turn,
// as a session's cells do. The families run in sequence under one plan, as
// a sweep worker's cells do, so each model's FP32 masters reuse cell
// arena chunks carved for earlier, differently sized ones.
func TestReleaseRestoresZooNetworks(t *testing.T) {
	withCleanCache(t)
	var recipes []recipeColumn
	recipes = append(recipes, sweepRecipes...)
	recipes = append(recipes,
		recipeColumn{"E4M3 extended", func(*models.Network) quant.Recipe {
			return quant.StandardFP8(quant.E4M3).WithExtendedOps()
		}},
		recipeColumn{"E4M3 BNCalib", func(*models.Network) quant.Recipe {
			return quant.StandardFP8(quant.E4M3).WithBNCalib(evalx.CalibBatches)
		}})
	plan := nn.NewPlan(nil)
	for _, name := range restoreFamilies {
		name := name
		t.Run(name, func(t *testing.T) {
			net, err := models.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			net.InstallPlan(plan)
			defer net.InstallPlan(nil)
			fresh, err := models.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			eval := net.Data.Batch(evalx.EvalStart)
			want := fresh.Run(eval).Clone()
			for _, col := range recipes {
				h := quant.Quantize(net, net.Data, evalx.PaperRecipe(col.recipe(net), net))
				net.Run(eval)
				h.Release()
				if diffs := diffValues(reflect.ValueOf(fresh.Root()), reflect.ValueOf(net.Root()), "root"); len(diffs) > 0 {
					t.Fatalf("after %s and Release, the network differs from a fresh Build:\n%s", col.label, strings.Join(diffs, "\n"))
				}
			}
			got := net.Run(eval)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("restored forward differs at %d: %v, want %v", i, got.Data[i], want.Data[i])
				}
			}
		})
	}
}

// diffValues compares two module trees field by field, unexported
// fields included: floats by bits, funcs (QState hooks) by nil-ness.
// It returns the paths that differ, at most ten.
func diffValues(a, b reflect.Value, path string) []string {
	var diffs []string
	seen := map[[2]uintptr]bool{}
	var walk func(a, b reflect.Value, path string)
	walk = func(a, b reflect.Value, path string) {
		if len(diffs) >= 10 {
			return
		}
		differ := func(format string, args ...any) {
			diffs = append(diffs, path+": "+fmt.Sprintf(format, args...))
		}
		switch a.Kind() {
		case reflect.Pointer, reflect.Interface:
			if a.IsNil() || b.IsNil() {
				if a.IsNil() != b.IsNil() {
					differ("nil %v, want nil %v", b.IsNil(), a.IsNil())
				}
				return
			}
			if a.Kind() == reflect.Pointer {
				k := [2]uintptr{a.Pointer(), b.Pointer()}
				if seen[k] {
					return
				}
				seen[k] = true
			} else if a.Elem().Type() != b.Elem().Type() {
				differ("type %v, want %v", b.Elem().Type(), a.Elem().Type())
				return
			}
			walk(a.Elem(), b.Elem(), path)
		case reflect.Struct:
			for i := 0; i < a.NumField(); i++ {
				walk(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			if a.Len() != b.Len() {
				differ("len %d, want %d", b.Len(), a.Len())
				return
			}
			for i := 0; i < a.Len(); i++ {
				walk(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Map:
			if a.Len() != b.Len() {
				differ("len %d, want %d", b.Len(), a.Len())
			}
		case reflect.Func:
			if a.IsNil() != b.IsNil() {
				differ("func set %v, want %v", !b.IsNil(), !a.IsNil())
			}
		case reflect.Float32, reflect.Float64:
			if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
				differ("%v, want %v", b.Float(), a.Float())
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			if a.Int() != b.Int() {
				differ("%d, want %d", b.Int(), a.Int())
			}
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			if a.Uint() != b.Uint() {
				differ("%d, want %d", b.Uint(), a.Uint())
			}
		case reflect.Bool:
			if a.Bool() != b.Bool() {
				differ("%v, want %v", b.Bool(), a.Bool())
			}
		case reflect.String:
			if a.String() != b.String() {
				differ("%q, want %q", b.String(), a.String())
			}
		}
	}
	walk(a, b, path)
	return diffs
}

// TestWithModelCellReusesNetwork checks that consecutive cells of one
// model on one session run on the same network, with the session's plan
// still installed.
func TestWithModelCellReusesNetwork(t *testing.T) {
	withCleanCache(t)
	recipe := func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E4M3) }
	var s Session
	var nets []*models.Network
	for cell := 0; cell < 2; cell++ {
		withModelCell(&s, "tinybert_mrpc", "E4M3", func(net *models.Network, sp *evalx.Split) evalx.Result {
			nets = append(nets, net)
			return evalx.EvaluateOn(net, recipe(net), true, sp)
		})
	}
	if nets[0] != nets[1] {
		t.Error("the second cell built a new network instead of taking the session's")
	}
	if s.net != nets[0] || nets[0].CellArena() != s.plan.Cell() {
		t.Error("the session does not hold its cells' network with its plan installed")
	}
}

// TestPanickingCellDropsNetwork checks that a cell that panics after
// Quantize, before Release, leaves its session without a network, and
// that the next cell rebuilds one equal to a fresh build, with the
// first cell's result.
func TestPanickingCellDropsNetwork(t *testing.T) {
	withCleanCache(t)
	const name = "cifar_resnet20"
	recipe := func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E4M3) }
	var s Session
	want := evalModelCell(&s, name, "E4M3", recipe)
	first := s.net
	if first == nil {
		t.Fatal("the session holds no network after a cell")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the cell did not panic")
			}
		}()
		withModelCell(&s, name, "E4M3", func(net *models.Network, _ *evalx.Split) evalx.Result {
			quant.Quantize(net, net.Data, quant.StandardFP8(quant.E4M3))
			panic("cell failed after Quantize")
		})
	}()
	if s.net != nil {
		t.Fatal("the session kept the network of a panicking cell")
	}
	fresh, err := models.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	var diffs []string
	got := withModelCell(&s, name, "E4M3", func(net *models.Network, sp *evalx.Split) evalx.Result {
		if net == first {
			t.Error("the next cell took the panicking cell's network")
		}
		diffs = diffValues(reflect.ValueOf(fresh.Root()), reflect.ValueOf(net.Root()), "root")
		return evalx.EvaluateOn(net, recipe(net), true, sp)
	})
	if len(diffs) > 0 {
		t.Errorf("the rebuilt network differs from a fresh Build:\n%s", strings.Join(diffs, "\n"))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the cell after the panic:\n got %+v\nwant %+v", got, want)
	}
}

// TestSessionCollectsOnModelSwitch checks when a session collects: with
// the collector's pacer off, moving to another model runs a collection
// (the dropped model's memory is reclaimed before the next build), and
// a second cell of the same model runs none.
func TestSessionCollectsOnModelSwitch(t *testing.T) {
	withCleanCache(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	numGC := func() uint32 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.NumGC
	}
	recipe := func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E4M3) }
	var s Session
	evalModelCell(&s, "cifar_resnet20", "E4M3", recipe)
	gcs := numGC()
	evalModelCell(&s, "cifar_resnet20", "E4M3", recipe)
	if got := numGC(); got != gcs {
		t.Errorf("a second cell of the same model collected %d times, want 0", got-gcs)
	}
	evalModelCell(&s, "tinybert_mrpc", "E4M3", recipe)
	if numGC() == gcs {
		t.Error("moving the session to another model did not collect")
	}
}

// TestSessionDropsModelForCollection checks that nothing keeps a model
// the session dropped alive: after a quantized cell of model A (its site
// table, batches, split and FP32 reference all made) and a move to
// model B, a finalizer on A's network and one on the backing array of
// A's largest weight both run. A plan, memo or cache that held either
// would keep the dropped model's memory from the next build.
func TestSessionDropsModelForCollection(t *testing.T) {
	withCleanCache(t)
	recipe := func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E4M3) }
	netFreed, weightFreed := make(chan struct{}), make(chan struct{})
	var s Session
	withModelCell(&s, "cifar_resnet20", "E4M3", func(net *models.Network, sp *evalx.Split) evalx.Result {
		var w *tensor.Tensor
		nn.Walk(net.Root(), func(_ string, m nn.Module) {
			if p, ok := m.(nn.Parametric); ok && (w == nil || p.WeightTensor().Len() > w.Len()) {
				w = p.WeightTensor()
			}
		})
		runtime.SetFinalizer(net, func(*models.Network) { close(netFreed) })
		runtime.SetFinalizer(&w.Data[0], func(*float32) { close(weightFreed) })
		return evalx.EvaluateOn(net, recipe(net), true, sp)
	})
	evalModelCell(&s, "tinybert_mrpc", "E4M3", recipe)
	for _, f := range []struct {
		what  string
		freed chan struct{}
	}{{"network", netFreed}, {"largest weight", weightFreed}} {
		deadline := time.Now().Add(5 * time.Second)
	wait:
		for {
			select {
			case <-f.freed:
				break wait
			case <-time.After(10 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				t.Fatalf("the dropped model's %s was not collected within 5s", f.what)
			}
			runtime.GC()
		}
	}
}

// TestNetPoolGridMatchesFreshBuilds runs a multi-model grid on the
// workers' sessions at 1 and 8 workers: every result must equal the
// cell computed alone from a fresh build, behind a ClearMemo process
// boundary.
func TestNetPoolGridMatchesFreshBuilds(t *testing.T) {
	withCleanCache(t)
	e, ok := Get("table2")
	if !ok {
		t.Fatal("table2 is not registered")
	}
	f := Filter{
		"model":  {"cifar_resnet20", "dlrm_criteo", "gpt2_wikitext", "shufflenet_v2", "tinybert_mrpc"},
		"recipe": {sweepRecipes[0].label, sweepRecipes[1].label, sweepRecipes[5].label},
	}
	sel := e.Spec().Select(f)
	want := map[int]evalx.Result{}
	for _, i := range sel {
		ClearMemo()
		_, want[i] = ComputeCellAt(e, i)
	}
	defer SetWorkers(0)
	for _, workers := range []int{1, 8} {
		ClearMemo()
		SetWorkers(workers)
		g, _, err := RunGrid(e, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range sel {
			if !reflect.DeepEqual(g.Results[i], want[i]) {
				t.Errorf("workers=%d: cell %s on a session:\n got %+v\nwant %+v",
					workers, e.Spec().KeyString(e.Spec().CellAt(i)), g.Results[i], want[i])
			}
		}
	}
}
