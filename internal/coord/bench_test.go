package coord

import (
	"context"
	"net/http/httptest"
	"testing"

	"fp8quant/internal/harness"
	"fp8quant/internal/resultstore"
	"fp8quant/internal/tensor/kernels"
)

// BenchmarkFleetCell measures one steady-state worker cycle over a
// loopback server: a computed cell's push with Next, its ingest into
// the store, and the answer carrying the grant's next cell. Worker and
// coordinator share the process, so allocs/op counts both sides of the
// wire. The grid is one model with a cell per iteration, so every
// cycle stays inside one grant.
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := lr.Lease
		push := PushRequest{Worker: w.Name, LeaseID: l.ID, Fingerprint: l.Fingerprint, Payload: payloads[l.Index],
			DurationMs: 1, Computed: true, KernelVariant: variant, Next: true}
		var pr PushResponse
		if err := w.call(ctx, "/v1/push", push, &pr, 0); err != nil {
			b.Fatal(err)
		}
		if pr.Status != PushStored || pr.Next == nil || pr.Next.Lease == nil {
			b.Fatalf("push answer %+v", pr)
		}
		lr = *pr.Next
	}
}
