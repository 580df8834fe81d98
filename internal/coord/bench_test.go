package coord

import (
	"context"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"fp8quant/internal/harness"
	"fp8quant/internal/resultstore"
	"fp8quant/internal/tensor/kernels"
)

// allocWindowLen is how many timed iterations a benchmark's allocation
// counters cover (allocWindow).
const allocWindowLen = 100

// allocWindow makes a benchmark's B/op and allocs/op those of timed
// iterations [1, allocWindowLen) (of all but the first in a shorter
// run), so a recorded run and a gate run count the same iterations in
// the same state. Averaged over every iteration they would move with
// b.N: later cells have longer indexes, recipe names and result values,
// and a collection that lands inside the loop empties the sync.Pools
// that the JSON and HTTP layers refill. So the window starts after a
// collection and one iteration that refills the pools, and the
// collector stays off until it ends.
type allocWindow struct {
	start  runtime.MemStats
	gc     int
	on     bool
	counts bool
}

// mark runs at the top of timed iteration i.
func (w *allocWindow) mark(b *testing.B, i int) {
	switch i {
	case 0:
		b.StopTimer()
		runtime.GC()
		w.gc, w.on = debug.SetGCPercent(-1), true
		b.StartTimer()
	case 1:
		runtime.ReadMemStats(&w.start)
		w.counts = true
	case allocWindowLen:
		w.report(b, i)
	}
}

// report ends the window before iteration i (b.N after the loop) and
// overrides the counters with the window's, once.
func (w *allocWindow) report(b *testing.B, i int) {
	if !w.on {
		return
	}
	w.on = false
	debug.SetGCPercent(w.gc)
	if !w.counts {
		return
	}
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	b.ReportMetric(float64(end.TotalAlloc-w.start.TotalAlloc)/float64(i-1), "B/op")
	b.ReportMetric(float64(end.Mallocs-w.start.Mallocs)/float64(i-1), "allocs/op")
}

// BenchmarkFleetCell measures one steady-state worker cycle over a
// loopback server: a computed cell's push with Next, its ingest into
// the store, and the answer carrying the grant's next cell. Worker and
// coordinator share the process, so allocs/op counts both sides of the
// wire. The grid is one model with a cell per iteration, so every
// cycle stays inside one grant. make bench-gate holds its allocs/op and
// bytes/op, counted over a fixed window of iterations (allocWindow); it
// reports no ns/op.
func BenchmarkFleetCell(b *testing.B) {
	withHarnessState(b)
	e := modelGrid("fleetcell", 1, b.N+1)
	store, err := resultstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(Config{Experiments: []harness.Experiment{e}, Store: store})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	w := &Worker{URL: srv.URL, Name: "bench"}
	w.defaults()
	payloads := make([][]byte, b.N)
	for i := range payloads {
		_, payloads[i] = payloadFor(b, e, i)
	}
	ctx := context.Background()
	var lr LeaseResponse
	if err := w.call(ctx, "/v1/lease", LeaseRequest{Worker: w.Name}, &lr, 0); err != nil || lr.Lease == nil {
		b.Fatalf("first lease: %+v, %v", lr, err)
	}
	variant := string(kernels.Active())
	var win allocWindow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		win.mark(b, i)
		l := lr.Lease
		push := PushRequest{Worker: w.Name, LeaseID: l.ID, Fingerprint: l.Fingerprint, Payload: payloads[l.Index],
			Computed: true, KernelVariant: variant, Next: true}
		var pr PushResponse
		if err := w.call(ctx, "/v1/push", push, &pr, 0); err != nil {
			b.Fatal(err)
		}
		if pr.Status != PushStored || pr.Next == nil || pr.Next.Lease == nil {
			b.Fatalf("push answer %+v", pr)
		}
		lr = *pr.Next
	}
	win.report(b, b.N)
	// Every iteration makes durable store writes, so its time tracks
	// the disk, not the code: a zero ns/op tells testing to print none.
	b.ReportMetric(0, "ns/op")
}
