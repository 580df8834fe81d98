package coord

import (
	"sync"
	"testing"
	"time"

	"fp8quant/internal/harness"
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

// leaseIndex leases one cell to worker and returns its grid index.
func leaseIndex(t *testing.T, c *Coordinator, worker string) int {
	t.Helper()
	lr := c.lease(worker)
	if lr.Status != StatusLease {
		t.Fatalf("lease for %s = %q, want lease", worker, lr.Status)
	}
	return lr.Lease.Index
}

// observeCells seeds the cost model with one duration per cell index.
func observeCells(c *Coordinator, e testExp, ms map[int]float64) {
	for i, v := range ms {
		fp := e.spec.CellKey(e.spec.CellAt(i)).Fingerprint()
		c.cost.Observe(fp, nil, time.Duration(v*float64(time.Millisecond)))
	}
}

// TestAffinityDisjointModels: two workers leasing in turn over a
// two-model grid each keep to one model while both models have pending
// cells, with the estimates moving under them as their pushes land.
func TestAffinityDisjointModels(t *testing.T) {
	withHarnessState(t)
	e := axisExp("affine",
		harness.Axis{Name: "model", Values: []string{"ma", "mb"}},
		harness.Axis{Name: "recipe", Values: []string{"r1", "r2", "r3", "r4"}},
	)
	clock, advance := fakeClock()
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t), Clock: clock})
	owner := map[string]string{} // model -> worker
	for round := 0; round < 4; round++ {
		for _, w := range []string{"w0", "w1"} {
			i := leaseIndex(t, c, w)
			model := e.spec.CellAt(i).Values[0]
			if o, ok := owner[model]; ok && o != w {
				t.Fatalf("round %d: %s leased cell %d of %s, which %s holds", round, w, i, model, o)
			}
			owner[model] = w
			fp, payload := payloadFor(t, e, i)
			// mb's cells run 1.5x ma's: the head moves between models,
			// but both stay inside the affinity window.
			ms := 1000.0 + 100*float64(round)
			if model == "mb" {
				ms *= 1.5
			}
			if _, code, msg := c.push(PushRequest{Worker: w, Fingerprint: fp, Payload: payload, Computed: true, DurationMs: ms}); code != 200 {
				t.Fatalf("push = %d %s", code, msg)
			}
			advance(time.Second)
		}
	}
	if owner["ma"] == owner["mb"] {
		t.Fatalf("owners = %v, want the two models on different workers", owner)
	}
	for _, w := range c.Workers().Workers {
		if w.Models != 1 {
			t.Fatalf("fleet entry %+v, want 1 model", w)
		}
	}
}

// TestAffinityWindowBound: a worker's own-model cell is preferred over
// the head only while its estimate is at least half the head's.
func TestAffinityWindowBound(t *testing.T) {
	for _, tc := range []struct {
		ownMs float64
		want  int
	}{
		{ownMs: 2100, want: 1}, // inside the window: own model (ma) first
		{ownMs: 1900, want: 2}, // below half the head: the head (mb)
	} {
		withHarnessState(t)
		e, _ := newTestExp("window")
		clock, _ := fakeClock()
		c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t), Clock: clock})
		// Cell 0 (ma) leases first; then the head is cell 2 (mb, 4000ms)
		// and cell 1 is ma's other recipe.
		observeCells(c, e, map[int]float64{0: 10000, 1: tc.ownMs, 2: 4000, 3: 3000, 4: 3500, 5: 2500})
		if i := leaseIndex(t, c, "w"); i != 0 {
			t.Fatalf("first lease = cell %d, want the head, cell 0", i)
		}
		if i := leaseIndex(t, c, "w"); i != tc.want {
			t.Fatalf("own-model cell at %vms vs a 4000ms head: leased cell %d, want cell %d", tc.ownMs, i, tc.want)
		}
	}
}

// TestAffinityStaleWorkerReleasesModels: once the reaper finds a
// registered worker stale, its models count as free again, so a fresh
// worker takes them over through rule 2 instead of taking the head.
func TestAffinityStaleWorkerReleasesModels(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("release") // cells 0,1 ma; 2,3 mb; 4,5 mc
	clock, advance := fakeClock()
	c := newTestCoord(t, Config{
		Experiments: []harness.Experiment{e}, Store: openStore(t),
		LeaseTTL: time.Hour, Heartbeat: 30 * time.Second, // StaleAfter = 90s
		Clock: clock,
	})
	// Queue order: mc (4, 5), mb (2, 3), ma (0, 1), all in one window.
	observeCells(c, e, map[int]float64{0: 1000, 1: 1000, 2: 1100, 3: 1100, 4: 1200, 5: 1200})
	c.hello(WorkerHello{Worker: "live"})
	c.hello(WorkerHello{Worker: "old"})
	if i := leaseIndex(t, c, "live"); i != 4 {
		t.Fatalf("live leased cell %d, want the head, cell 4 (mc)", i)
	}
	if i := leaseIndex(t, c, "old"); i != 2 {
		t.Fatalf("old leased cell %d, want cell 2 (mb: mc is live's)", i)
	}
	// While old is alive, a newcomer opens the one free model, ma.
	if i := leaseIndex(t, c, "probe"); i != 0 {
		t.Fatalf("probe leased cell %d, want cell 0 (ma: mc and mb are held)", i)
	}
	advance(2 * time.Minute)
	c.hello(WorkerHello{Worker: "live"}) // live heartbeats, old does not
	// The reaper requeues old's cell 2 and frees mb. Every model is held
	// but mb, so the fresh worker takes mb (cell 2, then its other
	// recipe) rather than the head, live's cell 5.
	if i := leaseIndex(t, c, "fresh"); i != 2 {
		t.Fatalf("fresh leased cell %d, want cell 2 (mb, released by stale old)", i)
	}
	if i := leaseIndex(t, c, "fresh"); i != 3 {
		t.Fatalf("fresh's second lease = cell %d, want cell 3 (its own mb)", i)
	}
}

// TestNoModelAxisLeasesInLPTOrder: on a grid without a model axis the
// lease order is plain LPT, whoever asks: descending estimate, ties
// broken by index.
func TestNoModelAxisLeasesInLPTOrder(t *testing.T) {
	withHarnessState(t)
	e := axisExp("nomodel",
		harness.Axis{Name: "format", Values: []string{"E4M3", "E5M2", "E3M4"}},
		harness.Axis{Name: "recipe", Values: []string{"r1", "r2"}},
	)
	clock, _ := fakeClock()
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t), Clock: clock})
	// Cell 4 costs 5000ms and cell 2 2000ms; the four unobserved cells
	// estimate the global mean (0.3*2000 + 0.7*5000 = 4100ms).
	observeCells(c, e, map[int]float64{4: 5000})
	observeCells(c, e, map[int]float64{2: 2000})
	want := []int{4, 0, 1, 3, 5, 2}
	for n, i := range want {
		w := []string{"w0", "w1"}[n%2]
		if got := leaseIndex(t, c, w); got != i {
			t.Fatalf("lease order[%d] (%s) = cell %d, want cell %d (want order %v)", n, w, got, i, want)
		}
	}
}
