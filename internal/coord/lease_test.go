package coord

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fp8quant/internal/evalx"
	"fp8quant/internal/faultline"
	"fp8quant/internal/harness"
	"fp8quant/internal/resultstore"
)

// fakeClock returns a Config.Clock and a way to move it forward.
func fakeClock() (func() time.Time, func(time.Duration)) {
	var mu sync.Mutex
	now := time.Unix(7000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	return clock, advance
}

// axisExp is newTestExp over other axes (two of them: the cell result
// reads the first two coordinates).
func axisExp(id string, axes ...harness.Axis) testExp {
	e, _ := newTestExp(id)
	e.spec.Axes = axes
	return e
}

// next asks for worker's next cell, which must be granted.
func next(t *testing.T, c *Coordinator, worker string) Lease {
	t.Helper()
	lr := c.lease(worker)
	if lr.Status != StatusLease {
		t.Fatalf("lease for %s = %q, want lease", worker, lr.Status)
	}
	return *lr.Lease
}

// grant asks for worker's next cell and then, one lease request each,
// for the rest of the grant that cell came in, and returns the cells
// in the order they were sent.
func grant(t *testing.T, c *Coordinator, worker string) []Lease {
	t.Helper()
	out := []Lease{next(t, c, worker)}
	c.mu.Lock()
	n := len(c.grants[out[0].ID].cells)
	c.mu.Unlock()
	for len(out) < n {
		out = append(out, next(t, c, worker))
	}
	return out
}

// expiries returns the lease timeouts counted against cell i of e.
func expiries(c *Coordinator, e testExp, i int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.items[e.spec.CellKey(e.spec.CellAt(i)).Fingerprint()].expiries
}

// indices returns the grid indices of a group's leases.
func indices(ls []Lease) []int {
	var out []int
	for _, l := range ls {
		out = append(out, l.Index)
	}
	return out
}

// pushLease pushes l's cell of e as computed by worker.
func pushLease(t *testing.T, c *Coordinator, e testExp, worker string, l Lease) PushResponse {
	t.Helper()
	fp, payload := payloadFor(t, e, l.Index)
	pr, code, msg := c.push(PushRequest{Worker: worker, LeaseID: l.ID, Fingerprint: fp, Payload: payload, Computed: true})
	if code != 200 {
		t.Fatalf("push of cell %d = %d %s", l.Index, code, msg)
	}
	return pr
}

// threeRecipes is a 2-model x 3-recipe grid: cells 0-2 are ma's, 3-5
// mb's.
func threeRecipes(id string) testExp {
	return axisExp(id,
		harness.Axis{Name: "model", Values: []string{"ma", "mb"}},
		harness.Axis{Name: "recipe", Values: []string{"r1", "r2", "r3"}},
	)
}

// TestExpiredGroupRequeuesUnpushedCells: when a group's leases expire,
// only its unpushed cells go back, and they lease again as one group.
// The expiry counts against the cell the worker had received, not the
// one it never started.
func TestExpiredGroupRequeuesUnpushedCells(t *testing.T) {
	withHarnessState(t)
	e := threeRecipes("regroup")
	clock, advance := fakeClock()
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t), LeaseTTL: time.Minute, Clock: clock})
	l := next(t, c, "dies")
	if p := c.Snapshot().Experiments[0]; l.Index != 0 || p.Leased != 3 {
		t.Fatalf("first lease = cell %d with %d leased, want cell 0 and ma's 3 cells leased", l.Index, p.Leased)
	}
	pushLease(t, c, e, "dies", l)
	if l = next(t, c, "dies"); l.Index != 1 {
		t.Fatalf("second lease = cell %d, want ma's cell 1", l.Index)
	}
	advance(2 * time.Minute)
	c.Reap()
	if p := c.Snapshot().Experiments[0]; p.Done != 1 || p.Pending != 5 || p.Leased != 0 {
		t.Fatalf("progress after expiry = %+v, want 1 done / 5 pending", p)
	}
	if n1, n2 := expiries(c, e, 1), expiries(c, e, 2); n1 != 1 || n2 != 0 {
		t.Fatalf("expiries counted: cell 1 %d, cell 2 %d; want 1 for the cell being computed, 0 for the one never sent", n1, n2)
	}
	// mb's group (three cells) now outweighs ma's remaining two.
	if got := indices(grant(t, c, "next")); !slices.Equal(got, []int{3, 4, 5}) {
		t.Fatalf("next group = cells %v, want mb's cells [3 4 5]", got)
	}
	if got := indices(grant(t, c, "next")); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("re-leased group = cells %v, want ma's unpushed cells [1 2]", got)
	}
	if lr := c.lease("next"); lr.Status != StatusWait {
		t.Fatalf("lease with every cell out = %q, want wait", lr.Status)
	}
}

// TestPushRefreshesGroupDeadlines: each push and each lease answer
// gives the holder's leases of the group a fresh LeaseTTL, so the TTL
// bounds one cell, not the whole group.
func TestPushRefreshesGroupDeadlines(t *testing.T) {
	withHarnessState(t)
	e := threeRecipes("refresh")
	clock, advance := fakeClock()
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t), LeaseTTL: time.Minute, Clock: clock})
	l := next(t, c, "w")
	advance(50 * time.Second)
	pushLease(t, c, e, "w", l)
	advance(50 * time.Second) // 100s after the grant, 50s after the push
	if n := c.ActiveLeases(); n != 2 {
		t.Fatalf("leases 50s after a push = %d, want the group's other 2", n)
	}
	l = next(t, c, "w")
	advance(50 * time.Second)
	pushLease(t, c, e, "w", l)
	advance(59 * time.Second)
	if n := c.ActiveLeases(); n != 1 {
		t.Fatalf("leases 59s after the second push = %d, want 1", n)
	}
	advance(2 * time.Second)
	if n := c.ActiveLeases(); n != 0 {
		t.Fatalf("leases 61s after the last push = %d, want 0 (expired)", n)
	}
	if p := c.Snapshot().Experiments[0]; p.Done != 2 || p.Pending != 4 {
		t.Fatalf("progress = %+v, want 2 done / 4 pending", p)
	}
}

// TestExitingWorkerReleasesGroup: a worker cancelled mid-cell pushes
// that cell marked exiting, and the cells of its group it never
// received go back to the queue at once, with no expiry counted.
func TestExitingWorkerReleasesGroup(t *testing.T) {
	withHarnessState(t)
	e := threeRecipes("exiting")
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	inner := e.run
	e.run = func(cell harness.Cell) evalx.Result {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return inner(cell)
	}
	clock, _ := fakeClock() // frozen: no lease can time out
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t), Clock: clock})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{URL: srv.URL, Name: "sigint", Resolve: resolveOnly(e), MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}
	done := make(chan WorkerStats, 1)
	go func() {
		stats, err := w.Run(ctx)
		if err != nil {
			t.Errorf("worker: %v", err)
		}
		done <- stats
	}()
	<-started
	cancel()
	close(release)
	if stats := <-done; stats.Computed != 1 {
		t.Fatalf("cancelled worker computed %d cells, want the in-flight one", stats.Computed)
	}
	if n, p := c.ActiveLeases(), c.Snapshot().Experiments[0]; n != 0 || p.Done != 1 || p.Pending != 5 {
		t.Fatalf("after the exiting push: %d leases, progress %+v; want 0 leases, 1 done / 5 pending", n, p)
	}
	for i := 0; i < 6; i++ {
		if n := expiries(c, e, i); n != 0 {
			t.Fatalf("cell %d counted %d expiries, want 0", i, n)
		}
	}
}

// TestNoModelAxisLeasesInLPTOrder: on a grid without a model axis every
// cell is a group of one, so each grant is one cell and the grants
// come in grid order, whoever asks.
func TestNoModelAxisLeasesInLPTOrder(t *testing.T) {
	withHarnessState(t)
	e := axisExp("nomodel",
		harness.Axis{Name: "format", Values: []string{"E4M3", "E5M2", "E3M4"}},
		harness.Axis{Name: "recipe", Values: []string{"r1", "r2"}},
	)
	clock, _ := fakeClock()
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t), Clock: clock})
	for i := 0; i < 6; i++ {
		w := []string{"w0", "w1"}[i%2]
		if got := indices(grant(t, c, w)); !slices.Equal(got, []int{i}) {
			t.Fatalf("grant %d (%s) = cells %v, want cell %d alone", i, w, got, i)
		}
	}
	if lr := c.lease("w2"); lr.Status != StatusWait {
		t.Fatalf("lease with every cell out = %q, want wait", lr.Status)
	}
}

// modelGrid is a synthetic grid of models x recipes.
func modelGrid(id string, models, recipes int) testExp {
	var ms, rs []string
	for i := 0; i < models; i++ {
		ms = append(ms, fmt.Sprintf("m%d", i))
	}
	for i := 0; i < recipes; i++ {
		rs = append(rs, fmt.Sprintf("r%d", i))
	}
	return axisExp(id, harness.Axis{Name: "model", Values: ms}, harness.Axis{Name: "recipe", Values: rs})
}

// runFleet runs n concurrent in-process workers over e to completion
// against a fresh coordinator and returns it.
func runFleet(t *testing.T, e testExp, n int) *Coordinator {
	t.Helper()
	harness.ClearMemo()
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t), LeaseTTL: time.Hour, WaitRetry: 10 * time.Millisecond})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{
				URL: srv.URL, Name: fmt.Sprintf("w%d", i), Resolve: resolveOnly(e),
				MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
			}
			if _, err := w.Run(context.Background()); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if !c.Snapshot().Complete {
		t.Fatal("sweep incomplete after every worker exited")
	}
	return c
}

// TestFleetSetsUpEachModelOnce: however many workers share a sweep,
// the fleet leases, and so builds, each model once, and pushes each
// cell once.
func TestFleetSetsUpEachModelOnce(t *testing.T) {
	withHarnessState(t)
	const models, recipes = 8, 6
	e := modelGrid("fleet8", models, recipes)
	for _, n := range []int{2, 4} {
		var sum WorkerInfo
		for _, w := range runFleet(t, e, n).Workers().Workers {
			sum.Models += w.Models
			sum.Leases += w.Leases
			sum.Pushes += w.Pushes
		}
		if sum.Models != models || sum.Leases != models || sum.Pushes != models*recipes {
			t.Errorf("%d workers: %d model setups, %d leases, %d pushes; want %d, %d, %d",
				n, sum.Models, sum.Leases, sum.Pushes, models, models, models*recipes)
		}
	}
}

// TestSweepWritesOnlyCellsAndManifests: a full sweep writes each cell
// once and the grid's manifest twice (its schedule, then the first
// pushed kernel variant), and leaves nothing else in the store, so a
// coordinated store holds what a local run's does.
func TestSweepWritesOnlyCellsAndManifests(t *testing.T) {
	withHarnessState(t)
	const models, recipes = 8, 6
	e := modelGrid("writes", models, recipes)
	if err := faultline.Arm(faultline.Plan{}); err != nil { // counts hits, injects nothing
		t.Fatal(err)
	}
	t.Cleanup(faultline.Disarm)
	c := runFleet(t, e, 2)
	writes := map[string]int{}
	for _, ps := range faultline.Stats() {
		if strings.HasPrefix(ps.Name, "resultstore.") && strings.HasSuffix(ps.Name, ".create") {
			writes[ps.Name] = ps.Hits
		}
	}
	want := map[string]int{"resultstore.save.create": models * recipes, "resultstore.manifest.create": 2}
	if !maps.Equal(writes, want) {
		t.Fatalf("store writes by class = %v, want %v", writes, want)
	}
	ents, err := os.ReadDir(c.cfg.Store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var other []string
	cells := 0
	for _, ent := range ents {
		switch name := ent.Name(); {
		case strings.HasPrefix(name, "c-"):
			cells++
		case !strings.HasPrefix(name, "m-"):
			other = append(other, name)
		}
	}
	if cells != models*recipes || len(other) != 0 {
		t.Fatalf("store holds %d cells and other files %v, want %d cells, manifests and nothing else", cells, other, models*recipes)
	}
}

// TestColdSweepGrantsLargestGroupFirst: on a fresh store with one grid
// every model's estimate is the same, so with pushes interleaved the
// grants come largest group first, then by model name. The grid reads
// its model from a config axis, which makes the groups unequal: md has
// 6 cells, ma and mb 4 each, mc 2.
func TestColdSweepGrantsLargestGroupFirst(t *testing.T) {
	withHarnessState(t)
	e := axisExp("cold",
		harness.Axis{Name: "config", Values: []string{"a/mb", "a/md", "b/md", "a/ma", "c/md", "b/mb", "a/mc", "b/ma"}},
		harness.Axis{Name: "recipe", Values: []string{"r1", "r2"}},
	)
	clock, _ := fakeClock()
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t), Clock: clock})
	want := [][]int{{2, 3, 4, 5, 8, 9}, {6, 7, 14, 15}, {0, 1, 10, 11}, {12, 13}}
	for n, cells := range want {
		w := []string{"w0", "w1"}[n%2]
		var got []int
		for range cells {
			l := next(t, c, w)
			pushLease(t, c, e, w, l)
			got = append(got, l.Index)
		}
		if !slices.Equal(got, cells) {
			t.Fatalf("grant %d (%s) = cells %v, want %v (want order %v)", n, w, got, cells, want)
		}
	}
	if !c.Snapshot().Complete {
		t.Fatal("sweep incomplete after every group was pushed")
	}
}

// TestLegacyCostModelIgnored: a store holding the costmodel.json an
// older coordinator persisted (schema 2: one running mean per model)
// schedules as a fresh one. The file rates ma's 2 cells far above mb's
// 3, yet mb's larger group is granted first; the sweep leaves the file's
// bytes alone, fsck reports it as a foreign file of a healthy store,
// and Prune keeps it.
func TestLegacyCostModelIgnored(t *testing.T) {
	withHarnessState(t)
	store := openStore(t)
	legacy := filepath.Join(store.Dir(), "costmodel.json")
	old := []byte(`{"schema":2,"models":{"ma":{"ema_ms":90000,"n":4},"mb":{"ema_ms":1,"n":6}},"all":{"ema_ms":36000,"n":10}}`)
	if err := os.WriteFile(legacy, old, 0o644); err != nil {
		t.Fatal(err)
	}
	e := axisExp("legacy",
		harness.Axis{Name: "config", Values: []string{"a/ma", "b/ma", "a/mb", "b/mb", "c/mb"}},
		harness.Axis{Name: "recipe", Values: []string{"r1"}},
	)
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: store})
	for n, cells := range [][]int{{2, 3, 4}, {0, 1}} {
		ls := grant(t, c, "w")
		if got := indices(ls); !slices.Equal(got, cells) {
			t.Fatalf("grant %d = cells %v, want %v: the larger group first", n, got, cells)
		}
		for _, l := range ls {
			pushLease(t, c, e, "w", l)
		}
	}
	if !c.Snapshot().Complete {
		t.Fatal("sweep incomplete after every group was pushed")
	}
	rep, err := store.Fsck(resultstore.FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, f := range rep.Findings {
		if f.File == "costmodel.json" {
			kinds = append(kinds, f.Kind)
		}
	}
	if !rep.Healthy() || !slices.Equal(kinds, []string{resultstore.FindForeign}) {
		t.Fatalf("fsck: healthy %v, costmodel.json findings %v; want a healthy store and one %s finding", rep.Healthy(), kinds, resultstore.FindForeign)
	}
	if _, err := store.Prune(0); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(legacy); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("costmodel.json after the sweep and Prune = %q, %v; want its bytes unchanged", got, err)
	}
}

// TestLingerOutlastsWaitingWorkers: Linger keeps the coordinator up
// while a worker answered StatusWait may still come back (for under 3/2
// of the wait hint), however short the asked linger, and adds nothing
// once that worker has asked again or when no worker was told to wait.
func TestLingerOutlastsWaitingWorkers(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("linger")
	const hint = 100 * time.Millisecond
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t), WaitRetry: hint})
	quick := func(when string) {
		t.Helper()
		start := time.Now()
		if c.Linger(hint / 10); time.Since(start) > hint {
			t.Fatalf("linger %s took %v, want about %v", when, time.Since(start), hint/10)
		}
	}
	wait := func(worker string) {
		t.Helper()
		if lr := c.lease(worker); lr.Status != StatusWait {
			t.Fatalf("lease for %s with every cell out = %q, want wait", worker, lr.Status)
		}
	}
	quick("with no waiting worker")
	var granted [][]Lease
	for i := 0; i < 3; i++ {
		granted = append(granted, grant(t, c, fmt.Sprintf("w%d", i)))
	}
	wait("gone")
	waited := time.Now()
	if c.Linger(hint / 10); time.Since(waited) < hint*3/2 {
		t.Fatalf("linger while a worker waits ended %v after the wait answer, want at least %v", time.Since(waited), hint*3/2)
	}
	wait("back")
	for i, ls := range granted {
		for _, l := range ls {
			pushLease(t, c, e, fmt.Sprintf("w%d", i), l)
		}
	}
	if lr := c.lease("back"); lr.Status != StatusDone {
		t.Fatalf("lease after completion = %q, want done", lr.Status)
	}
	quick("once the waiting worker was told done")
}

// TestGroupSpansGrids: a model group is every pending cell of the model
// across the scheduled grids, sent in (exp, index) order whatever order
// the experiments were configured in.
func TestGroupSpansGrids(t *testing.T) {
	withHarnessState(t)
	z := threeRecipes("z-exp") // ma's cells 0-2, mb's 3-5
	a := axisExp("a-exp",
		harness.Axis{Name: "model", Values: []string{"ma"}},
		harness.Axis{Name: "recipe", Values: []string{"s1", "s2"}},
	)
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{z, a}, Store: openStore(t)})
	var got []string
	for _, l := range grant(t, c, "w") {
		got = append(got, fmt.Sprintf("%s/%d", l.Exp, l.Index))
	}
	if want := []string{"a-exp/0", "a-exp/1", "z-exp/0", "z-exp/1", "z-exp/2"}; !slices.Equal(got, want) {
		t.Fatalf("first grant = %v, want ma's cells of both grids %v", got, want)
	}
}

// TestLatePushedQueuedCellIsNotGrantedAgain: a cell whose grant
// expired is requeued; when its late push lands while it waits in the
// queue, it stays done and no later grant takes it.
func TestLatePushedQueuedCellIsNotGrantedAgain(t *testing.T) {
	withHarnessState(t)
	e := threeRecipes("latequeued")
	clock, advance := fakeClock()
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t), LeaseTTL: time.Minute, Clock: clock})
	late := next(t, c, "slow")
	advance(2 * time.Minute)
	c.Reap()
	pushLease(t, c, e, "slow", late)
	if p := c.Snapshot().Experiments[0]; p.Done != 1 || p.Pending != 5 {
		t.Fatalf("progress after the late push = %+v, want 1 done / 5 pending", p)
	}
	// ma has two pending cells left, so mb's three go first.
	for _, want := range [][]int{{3, 4, 5}, {1, 2}} {
		if got := indices(grant(t, c, "next")); !slices.Equal(got, want) {
			t.Fatalf("grant = cells %v, want %v", got, want)
		}
		if p := c.Snapshot().Experiments[0]; p.Done != 1 {
			t.Fatalf("progress after a grant = %+v, want the late-pushed cell still done", p)
		}
	}
	if lr := c.lease("next"); lr.Status != StatusWait {
		t.Fatalf("lease with every cell out = %q, want wait", lr.Status)
	}
}

// TestLatePushedReservedCellIsNotSent: a cell reserved in one worker's
// grant and completed by another worker's late push is skipped when the
// grant's holder asks for its next cell.
func TestLatePushedReservedCellIsNotSent(t *testing.T) {
	withHarnessState(t)
	e := threeRecipes("latereserved")
	clock, advance := fakeClock()
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t), LeaseTTL: time.Minute, Clock: clock})
	next(t, c, "a")
	late := next(t, c, "a")
	advance(2 * time.Minute)
	c.Reap()
	if l := next(t, c, "b"); l.Index != 0 {
		t.Fatalf("b's first cell = %d, want ma's cell 0", l.Index)
	}
	pushLease(t, c, e, "a", late) // cell 1, reserved in b's grant
	if l := next(t, c, "b"); l.Index != 2 {
		t.Fatalf("b's second cell = %d, want cell 2 (cell 1 is done)", l.Index)
	}
	if p := c.Snapshot().Experiments[0]; p.Done != 1 || p.Leased != 2 {
		t.Fatalf("progress = %+v, want 1 done / 2 leased", p)
	}
}

// TestFilterAxisSomeGridsLack: a filter axis one grid lacks schedules
// that grid empty (the batch rule fp8bench -filter applies), while an
// axis no grid declares fails New with each grid's axes.
func TestFilterAxisSomeGridsLack(t *testing.T) {
	withHarnessState(t)
	models := modelGrid("bymodel", 2, 2)
	configs := axisExp("byconfig",
		harness.Axis{Name: "config", Values: []string{"fp8/m0", "fp8/m1"}},
		harness.Axis{Name: "recipe", Values: []string{"r1"}},
	)
	exps := []harness.Experiment{models, configs}
	c := newTestCoord(t, Config{Experiments: exps, Filter: harness.Filter{"model": {"m1"}}, Store: openStore(t)})
	snap := c.Snapshot()
	if got := []int{snap.Experiments[0].Total, snap.Experiments[1].Total}; !slices.Equal(got, []int{2, 0}) {
		t.Fatalf("scheduled cells per grid = %v, want [2 0]", got)
	}
	if got := indices(grant(t, c, "w0")); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("granted cells %v, want m1's cells 2 and 3", got)
	}
	_, err := New(Config{Experiments: exps, Filter: harness.Filter{"modle": {"m1"}}, Store: openStore(t)})
	if err == nil {
		t.Fatal("an axis no grid declares must fail New")
	}
	for _, want := range []string{"modle", "bymodel: model, recipe", "byconfig: config, recipe"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
}

// TestFilterMatchingNothingFails: a filter that selects no cell of any
// experiment fails New with fp8bench's wording instead of scheduling a
// complete sweep of nothing, while a filter whose every selected cell
// the store already holds is a valid, complete schedule.
func TestFilterMatchingNothingFails(t *testing.T) {
	withHarnessState(t)
	e := modelGrid("nothing", 2, 2)
	store := openStore(t)
	_, err := New(Config{Experiments: []harness.Experiment{e}, Filter: harness.Filter{"model": {"nosuch"}}, Store: store})
	if err == nil || !strings.Contains(err.Error(), "matches no cells in any requested experiment") {
		t.Fatalf("New with a filter matching no cell = %v, want the no-cells error", err)
	}
	for _, i := range []int{2, 3} {
		fp, payload := payloadFor(t, e, i)
		if _, err := store.IngestCell(fp, payload); err != nil {
			t.Fatal(err)
		}
	}
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Filter: harness.Filter{"model": {"m1"}}, Store: store})
	if p := c.Snapshot(); !p.Complete || p.Experiments[0].Total != 2 || p.Experiments[0].Done != 2 {
		t.Fatalf("progress over a store holding every selected cell = %+v, want 2 of 2 done and complete", p)
	}
}
