package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"fp8quant/internal/coord"
	"fp8quant/internal/harness"
	"fp8quant/internal/models"
	"fp8quant/internal/resultstore"
)

func TestTailRank(t *testing.T) {
	for _, c := range []struct{ n, rank int }{
		{1, 1}, {2, 1}, {10, 5}, {20, 10}, {21, 11}, {30, 20}, {72, 62}, {96, 86},
	} {
		if got := tailRank(c.n); got != c.rank {
			t.Errorf("tailRank(%d) = %d, want %d", c.n, got, c.rank)
		}
	}
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(30 - i) // 30..1, unsorted
	}
	if got := tail(xs); got != 20 {
		t.Errorf("tail of 1..30 = %v, want 20 (ten samples beyond it)", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) on these inputs.
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2, 5}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfTimeAndBusyFrac(t *testing.T) {
	const s = int64(time.Second)
	spans := []span{
		{Name: "cell", Proc: "a", ID: 1, Start: 0, End: 10 * s},
		{Name: "models.build", Proc: "a", ID: 2, Parent: 1, Start: 1 * s, End: 4 * s},
		{Name: "evalx.quant_eval", Proc: "a", ID: 3, Parent: 1, Start: 3 * s, End: 8 * s}, // overlaps build by 1 s
		{Name: "quant.release", Proc: "a", ID: 4, Parent: 3, Start: 5 * s, End: 6 * s},
		// Same ID in another process: not a child of a's span 1.
		{Name: "cell", Proc: "b", ID: 1, Start: 2 * s, End: 6 * s},
		{Name: "models.build", Proc: "b", ID: 2, Parent: 1, Start: 2 * s, End: 3 * s},
	}
	self := selfSeconds(spans)
	want := map[string]float64{
		"cell":             3 + 3, // a: 10 - union(1..8); b: 4 - 1
		"models.build":     3 + 1,
		"evalx.quant_eval": 4,
		"quant.release":    1,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfSeconds = %v, want %v", self, want)
	}
	if got := busyFrac(named(spans, "cell"), 2, 10); got != 0.7 {
		t.Errorf("busyFrac = %v, want (10+4)/(2*10) = 0.7", got)
	}
}

func TestLayerMetricsFromSyntheticReps(t *testing.T) {
	const ms = int64(time.Millisecond)
	traced := rep{traced: true, window: 1, cells: 2, bytes: 1000, report: childReport{
		Mem: memCounts{AllocBytes: 4 << 20, Mallocs: 100, GCCycles: 3, GCPauseNs: 2e6},
		Spans: []span{
			{Name: "cell", Proc: "p", ID: 1, Start: 0, End: 500 * ms},
			{Name: "models.build", Proc: "p", ID: 2, Parent: 1, Start: 0, End: 200 * ms},
			{Name: "evalx.quant_eval", Proc: "p", ID: 3, Parent: 1, Start: 200 * ms, End: 480 * ms},
			{Name: "cell", Proc: "p", ID: 4, Start: 500 * ms, End: 1000 * ms},
			{Name: "models.build", Proc: "p", ID: 5, Parent: 4, Start: 500 * ms, End: 800 * ms},
			{Name: "evalx.quant_eval", Proc: "p", ID: 6, Parent: 4, Start: 800 * ms, End: 1000 * ms},
		},
	}}
	// The overhead compares medians: 2 cells/s traced against 2.5 plain.
	plain := []rep{{window: 0.9, cells: 2, cpu: 1.6}, {window: 0.8, cells: 2, cpu: 1.5}, {window: 0.7, cells: 2, cpu: 1.4}}
	v := layerMetrics(append(plain, traced))
	for name, want := range map[string]float64{
		"harness.busy_frac":          0.5,
		"models.build_s":             0.25,
		"models.build_frac":          0.5,
		"evalx.quant_eval_s":         0.24,
		"trace.span_cover_frac":      0.98,
		"trace.overhead_frac":        0.2,
		"resultstore.bytes_per_cell": 500,
		"go.gc_per_cell":             1.5,
		"harness.cells_per_s":        2 / 0.7,
		"harness.cpu_s":              1.4,
		"coord.leases_per_cell":      0,
	} {
		if got := v[name]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestEndToEndMetrics(t *testing.T) {
	mem := func(mib, mallocs uint64) childReport {
		return childReport{Mem: memCounts{AllocBytes: mib << 20, Mallocs: mallocs}}
	}
	reps := []rep{
		{rssMB: 21, cells: 30, report: mem(300, 3000)},
		{rssMB: 20, cells: 30, report: mem(330, 3300)},
		{rssMB: 22, cells: 30, report: mem(360, 3600)},
		{traced: true, rssMB: 9, cells: 30, report: mem(9, 9)},
	}
	v := endToEndMetrics(reps, []float64{0.004, 0.003, 0.005, 0.006})
	for name, want := range map[string]float64{
		"setup_s":           0.0045, // median
		"peak_rss_mb":       20,     // least of the plain repetitions
		"alloc_mb_per_cell": 11,     // median of the plain repetitions
		"mallocs_per_cell":  110,
	} {
		if got := v[name]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("bad or repeated metric %q (unit %q)", d.name, d.unit)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] {
			t.Errorf("bad or repeated workload name %q", w.name)
		}
		seen[w.name] = true
	}
}

// TestBenchmarkJSON keeps the checked-in contract in step with the
// metrics and workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var gotW, wantW []string
	for _, w := range bj.Workloads {
		gotW = append(gotW, w.Name)
	}
	for _, w := range workloads {
		wantW = append(wantW, w.name)
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", gotW, wantW)
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, program has %d/%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := bj.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := bj.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}

func TestPoolsMatchZoo(t *testing.T) {
	for m := range cnnCost {
		if info, ok := models.InfoFor(m); !ok || info.Domain != models.CV || !info.IsCNN {
			t.Errorf("CNN pool model %s is not a CV CNN of the zoo", m)
		}
	}
	want := map[string]bool{"dlrm_criteo": true}
	for _, m := range models.NamesByDomain(models.NLP) {
		want[m] = true
	}
	if len(tokenCost) != len(want) {
		t.Errorf("token pool has %d models, want the %d NLP models plus DLRM", len(tokenCost), len(want))
	}
	for m := range want {
		if _, ok := tokenCost[m]; !ok {
			t.Errorf("token pool lacks %s", m)
		}
	}
	// Every pool model needs a golden digest under each amd64 tier, or
	// its cells go unchecked there.
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"amd64/avx2", "amd64/sse", "amd64/generic"} {
		for _, pool := range []map[string]cost{cnnCost, tokenCost} {
			for m := range pool {
				if g.Digests[v][m] == "" {
					t.Errorf("golden.json has no %s digest for %s", v, m)
				}
			}
		}
	}
}

func TestDrawsDeterministicAndInPool(t *testing.T) {
	for _, w := range workloads {
		slots := slotsOf(w.pool, w.slots)
		slotOf := map[string]int{}
		for i, s := range slots {
			for _, m := range s {
				slotOf[m] = i
			}
		}
		for seed := uint64(1); seed <= 50; seed++ {
			a, err := w.draw(seed)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := w.draw(seed)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s seed %d: draws differ: %v vs %v", w.name, seed, a, b)
			}
			if !sort.StringsAreSorted(a) || len(a) != w.slots {
				t.Fatalf("%s seed %d: draw %v is not one sorted model per slot", w.name, seed, a)
			}
			used := map[int]bool{}
			for _, m := range a {
				i, ok := slotOf[m]
				if !ok || used[i] {
					t.Fatalf("%s seed %d: %s is outside the pool or repeats a slot", w.name, seed, m)
				}
				used[i] = true
			}
			if seed <= 3 {
				t.Logf("%s seed %d: %v", w.name, seed, a)
			}
		}
	}
	// The fleet serves the sweep's cells, so the two must draw alike.
	s, _ := workloadByName("sweep-token")
	f, _ := workloadByName("fleet-token")
	a, _ := s.draw(7)
	b, _ := f.draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sweep-token and fleet-token draw %v and %v for one seed", a, b)
	}
}

// TestDLRMSmoke runs dlrm_criteo's six cells (~20 ms) three ways: the
// executor, the traced cell path on its 2-goroutine pool, and a
// 1-worker in-process coordinator behind the tracing middleware.
// All three must store the same bytes, and the golden digest must
// match them where the host has one.
func TestDLRMSmoke(t *testing.T) {
	want, err := expectedCells([]string{"dlrm_criteo"})
	if err != nil {
		t.Fatal(err)
	}
	e, f, err := table2([]string{"dlrm_criteo"})
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]string{}
	for _, name := range []string{"executor", "traced", "fleet"} {
		stores[name] = filepath.Join(t.TempDir(), "store")
	}
	open := func(dir string) *resultstore.Store {
		s, err := resultstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// The two child paths of a sweep repetition, in process.
	harness.ClearMemo()
	rep, err := executorSweep(childSpec{Models: []string{"dlrm_criteo"}, Store: stores["executor"]})
	harness.SetStore(nil)
	harness.SetProgress(nil)
	harness.ClearMemo()
	if err != nil || len(rep.Errors) > 0 || rep.Cells != 6 || rep.ReadyNs == 0 {
		t.Fatalf("executor sweep: %+v, %v", rep, err)
	}
	rep, err = tracedSweep(childSpec{Models: []string{"dlrm_criteo"}, Store: stores["traced"]})
	if err != nil || len(rep.Errors) > 0 {
		t.Fatalf("traced sweep: %v %v", rep.Errors, err)
	}
	if n := len(named(rep.Spans, "cell")); n != 6 {
		t.Errorf("traced sweep recorded %d cell spans, want 6", n)
	}

	c, err := coord.New(coord.Config{Experiments: []harness.Experiment{e}, Filter: f, Store: open(stores["fleet"])})
	if err != nil {
		t.Fatal(err)
	}
	tap := &coordTap{h: c.Handler(), tr: newTracer("coord"), leased: map[string]span{}}
	srv := httptest.NewServer(tap)
	defer srv.Close()
	if _, err := (&coord.Worker{URL: srv.URL}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	harness.ClearMemo()
	if want := (coordCounts{Leases: 6, Pushes: 6, Stored: 6}); tap.counts != want {
		t.Errorf("coordinator middleware counted %+v, want %+v", tap.counts, want)
	}
	if n := len(named(tap.tr.snapshot(), "coord.cell")); n != 6 {
		t.Errorf("middleware recorded %d lease-to-push spans, want 6", n)
	}

	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	gold := g.Digests[variantKey()]
	exec, err := readStore(stores["executor"])
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkCells(exec, want, gold, nil); len(bad) > 0 {
		t.Errorf("executor: %v", bad)
	}
	for _, name := range []string{"traced", "fleet"} {
		got, err := readStore(stores[name])
		if err != nil {
			t.Fatal(err)
		}
		if bad := checkCells(got, want, gold, exec); len(bad) > 0 {
			t.Errorf("%s: %v", name, bad)
		}
	}
}
