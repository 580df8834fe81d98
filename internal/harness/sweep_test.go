package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// cellLabels returns the model labels of n cells: none (a grid without
// a model axis), runs of 10 cells per model (model axis first) and 7
// interleaved models (model axis last).
func cellLabels(n int) map[string][]string {
	first, last := make([]string, n), make([]string, n)
	for i := range first {
		first[i] = fmt.Sprintf("m%d", i/10)
		last[i] = fmt.Sprintf("m%d", i%7)
	}
	return map[string][]string{"none": make([]string, n), "first": first, "last": last}
}

func TestForEachCellCoversAllIndices(t *testing.T) {
	const n = 1000
	for name, models := range cellLabels(n) {
		for _, workers := range []int{0, 1, 2, 7} {
			SetWorkers(workers)
			var hits [n]int32
			forEachCell(models, func(i int, _ *Session) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("%s, workers=%d: cell %d ran %d times", name, workers, i, h)
				}
			}
		}
	}
	SetWorkers(0)
}

func TestCollectCellsDeterministicOrder(t *testing.T) {
	want := make([]int, 500)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 3, 16} {
		SetWorkers(workers)
		got := make([]int, len(want))
		forEachCell(make([]string, len(got)), func(i int, _ *Session) { got[i] = i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
	SetWorkers(0)
}

func TestSetWorkersBounds(t *testing.T) {
	SetWorkers(3)
	if Workers() != 3 {
		t.Errorf("Workers() = %d after SetWorkers(3)", Workers())
	}
	// The pool must never run more cells concurrently than configured,
	// and each worker runs its cells on a session of its own.
	for name, models := range cellLabels(64) {
		var cur, peak int32
		var sessions sync.Map // *Session -> whether a cell runs on it
		forEachCell(models, func(i int, s *Session) {
			if busy, _ := sessions.Swap(s, true); busy == true {
				t.Errorf("%s: two cells ran on one session at once", name)
			}
			defer sessions.Store(s, false)
			c := atomic.AddInt32(&cur, 1)
			for {
				p := atomic.LoadInt32(&peak)
				if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
					break
				}
			}
			for j := 0; j < 10000; j++ {
				_ = j * j
			}
			atomic.AddInt32(&cur, -1)
		})
		if peak > 3 {
			t.Errorf("%s: observed %d concurrent cells with 3 workers", name, peak)
		}
		n := 0
		sessions.Range(func(_, _ any) bool { n++; return true })
		if n > 3 {
			t.Errorf("%s: cells ran on %d sessions with 3 workers", name, n)
		}
	}
	SetWorkers(0)
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers() = %d, want GOMAXPROCS default", Workers())
	}
	SetWorkers(-5)
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("negative SetWorkers should mean default, got %d", Workers())
	}
}

func TestForEachCellEmpty(t *testing.T) {
	ran := false
	forEachCell(nil, func(i int, _ *Session) { ran = true })
	if ran {
		t.Error("forEachCell(0) must not invoke the cell")
	}
}

// TestNextCellRule pins the claim order: the worker's own model, then
// a model no worker is running, then the first unclaimed cell.
func TestNextCellRule(t *testing.T) {
	models := []string{"a", "a", "b", "b", "c", "c"}
	cases := []struct {
		name    string
		claimed []int
		running map[string]int
		last    string
		want    int
	}{
		{"first claim takes the head", nil, nil, "", 0},
		{"a free model before a running one", []int{0}, map[string]int{"a": 1}, "", 2},
		{"own model before a free one", []int{0, 2}, map[string]int{"b": 1}, "a", 1},
		{"own model even when another worker runs it", []int{0, 2}, map[string]int{"a": 1, "b": 1}, "a", 1},
		{"free model after own model is done", []int{0, 1, 2}, map[string]int{"b": 1}, "a", 4},
		{"head when every model left is running", []int{0, 1, 2, 4}, map[string]int{"b": 1, "c": 1}, "a", 3},
		{"nothing left", []int{0, 1, 2, 3, 4, 5}, nil, "c", -1},
	}
	for _, tc := range cases {
		claimed := make([]bool, len(models))
		for _, k := range tc.claimed {
			claimed[k] = true
		}
		if got := nextCell(models, claimed, tc.running, tc.last); got != tc.want {
			t.Errorf("%s: nextCell = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestForEachCellSerialOrder checks the order one worker runs cells
// in: ascending without a model axis, model by model with one.
func TestForEachCellSerialOrder(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(1)
	for _, tc := range []struct {
		models []string
		want   []int
	}{
		{make([]string, 5), []int{0, 1, 2, 3, 4}},
		{[]string{"a", "a", "b", "b"}, []int{0, 1, 2, 3}},
		{[]string{"a", "b", "c", "a", "b", "c"}, []int{0, 3, 1, 4, 2, 5}},
	} {
		var got []int
		forEachCell(tc.models, func(k int, _ *Session) { got = append(got, k) })
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("models %q: order %v, want %v", tc.models, got, tc.want)
		}
	}
}

// TestCellModels checks CellModels against each cell's values: the
// model axis wherever it sits, the last '/' part of a config axis in a
// grid without one (fig9), and "" for config values without a '/' and
// for grids with neither axis.
func TestCellModels(t *testing.T) {
	spec := func(axes ...Axis) GridSpec { return GridSpec{ID: "g", Axes: axes} }
	recipe := Axis{Name: "recipe", Values: []string{"r1", "r2"}}
	model := Axis{Name: "model", Values: []string{"ma", "mb", "mc"}}
	format := Axis{Name: "format", Values: []string{"f1", "f2"}}
	flat := Axis{Name: "config", Values: []string{"CV/E4M3/base/ma", "CV/E4M3/alt/mb", "NLP/E3M4/base/mc", "NLP/E3M4/alt/mc"}}
	labels := Axis{Name: "config", Values: []string{"INT8 Dynamic", "E5M2 Direct", "E4M3 Static", "FP8 Mixed"}}
	for _, s := range []GridSpec{
		spec(model, recipe),
		spec(format, recipe, model),
		spec(format, model, recipe),
		spec(format, recipe),
		spec(flat),
		spec(labels),
		spec(labels, model),
	} {
		idx := []int{0, 1, 3, s.NumCells() - 1}
		got := s.CellModels(idx)
		for k, i := range idx {
			want := ""
			c := s.CellAt(i)
			for ai, a := range s.Axes {
				if a.Name == "model" {
					want = c.Values[ai]
				}
			}
			if s.Axes[0].Name == "config" && len(s.Axes) == 1 {
				if parts := strings.Split(c.Values[0], "/"); len(parts) > 1 {
					want = parts[len(parts)-1]
				}
			}
			if got[k] != want {
				t.Errorf("axes %v: cell %d model %q, want %q", s.AxisNames(), i, got[k], want)
			}
		}
	}
	// fig9 as registered: every cell's model is the one its runner
	// evaluates, and cell keys are unchanged, so its store cells keep
	// their fingerprints.
	e, ok := Get("fig9")
	if !ok {
		t.Fatal("fig9 is not registered")
	}
	fs := e.Spec()
	all := make([]int, fs.NumCells())
	for i := range all {
		all[i] = i
	}
	groups := fig9Groups()
	for i, m := range fs.CellModels(all) {
		if want := groups[i/fig9GroupSize].names[i%fig9GroupSize]; m != want {
			t.Fatalf("fig9 cell %d: model %q, want %q", i, m, want)
		}
	}
	if got := fs.AxisNames(); len(got) != 1 || got[0] != "config" {
		t.Errorf("fig9 axes %v, want [config]: a new axis changes every fig9 cell key", got)
	}
}
