package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fp8quant/internal/faultline"
	"fp8quant/internal/harness"
	"fp8quant/internal/resultstore"
)

// TestDefaultWorkerNamesDistinct pins the PR-9 postmortem fix: two
// library-constructed workers with empty Names must get distinct
// defaults (and therefore distinct backoff-RNG seeds), not the shared
// host-pid name that made them retry in lockstep.
func TestDefaultWorkerNamesDistinct(t *testing.T) {
	w1, w2 := &Worker{}, &Worker{}
	w1.defaults()
	w2.defaults()
	if w1.Name == "" || w2.Name == "" {
		t.Fatalf("default names empty: %q, %q", w1.Name, w2.Name)
	}
	if w1.Name == w2.Name {
		t.Fatalf("two default-named workers collided on %q", w1.Name)
	}
	// An explicit name is never overwritten.
	w3 := &Worker{Name: "explicit"}
	w3.defaults()
	if w3.Name != "explicit" {
		t.Fatalf("defaults rewrote an explicit name to %q", w3.Name)
	}
}

// TestWorkersEndpoint covers registration over the wire: POST hello
// acks the heartbeat interval and marks the worker registered in the
// GET fleet view; a nameless hello is a 400; and a worker's Run loop
// registers itself without any cmd wiring.
func TestWorkersEndpoint(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("fleet")
	c := newTestCoord(t, Config{
		Experiments: []harness.Experiment{e}, Store: openStore(t),
		Heartbeat: 5 * time.Second,
	})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	hello := func(h WorkerHello) (WorkerAck, int) {
		t.Helper()
		b, _ := json.Marshal(h)
		resp, err := http.Post(srv.URL+"/v1/workers", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ack WorkerAck
		_ = json.NewDecoder(resp.Body).Decode(&ack)
		return ack, resp.StatusCode
	}
	ack, code := hello(WorkerHello{Worker: "wa", Host: "h1", Pid: 42, KernelVariant: "sse"})
	if code != 200 || ack.HeartbeatMs != 5000 {
		t.Fatalf("hello = %d/%+v, want 200 with the configured heartbeat", code, ack)
	}
	if _, code := hello(WorkerHello{Host: "h1"}); code != http.StatusBadRequest {
		t.Fatalf("nameless hello = %d, want 400", code)
	}

	fleet := func() WorkersSnapshot {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/workers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap WorkersSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}
	snap := fleet()
	if len(snap.Workers) != 1 {
		t.Fatalf("fleet view = %+v, want exactly wa", snap.Workers)
	}
	w := snap.Workers[0]
	if w.Worker != "wa" || !w.Registered || w.Host != "h1" || w.Pid != 42 || w.KernelVariant != "sse" || w.Stale || w.Models != 0 {
		t.Fatalf("fleet entry = %+v", w)
	}

	// A worker's Run loop registers itself (hello on start) and its
	// lease/push traffic and the models it leased (ma, mb, mc) are
	// tallied: one lease per model group, one push per cell.
	wk := &Worker{
		URL: srv.URL, Name: "runner", Resolve: resolveOnly(e),
		MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
	}
	if _, err := wk.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	view := fleet()
	var runner *WorkerInfo
	for i := range view.Workers {
		if view.Workers[i].Worker == "runner" {
			runner = &view.Workers[i]
		}
	}
	if runner == nil || !runner.Registered || runner.Leases != 3 || runner.Pushes != 6 || runner.Models != 3 {
		t.Fatalf("runner fleet entry = %+v, want registered with 3 leases, 6 pushes and 3 models", runner)
	}
}

// TestStaleWorkerLeasesExpireEarly is the heartbeat payoff: a
// registered worker that goes silent for three heartbeats has its group's
// leases reaped immediately — long before the lease TTL — while a
// worker that never registered (no heartbeat promise) keeps the plain
// TTL. Each grant is one model's two cells.
func TestStaleWorkerLeasesExpireEarly(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("stale")
	var mu sync.Mutex
	now := time.Unix(5000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	c := newTestCoord(t, Config{
		Experiments: []harness.Experiment{e}, Store: openStore(t),
		LeaseTTL: time.Hour, Heartbeat: 30 * time.Second, // stale after 90s
		Clock: clock,
	})
	c.hello(WorkerHello{Worker: "beating"})
	if lr := c.lease("beating"); lr.Status != StatusLease {
		t.Fatalf("registered lease = %q", lr.Status)
	}
	if lr := c.lease("plain"); lr.Status != StatusLease {
		t.Fatalf("unregistered lease = %q", lr.Status)
	}

	// Within three heartbeats nothing expires.
	advance(60 * time.Second)
	c.Reap()
	if n := c.ActiveLeases(); n != 4 {
		t.Fatalf("leases after 60s = %d, want both groups' 4", n)
	}

	// Past three heartbeats the silent registered worker's lease expires; the
	// unregistered worker keeps its TTL.
	advance(60 * time.Second) // 120s silent > 90s, << 1h TTL
	view := c.Workers()
	if !view.Workers[0].Stale || view.Workers[1].Stale {
		t.Fatalf("staleness = %+v, want only 'beating' stale", view.Workers)
	}
	c.Reap()
	if n := c.ActiveLeases(); n != 2 {
		t.Fatalf("leases after staleness = %d, want only the unregistered worker's 2", n)
	}
	snap := c.Snapshot()
	if p := snap.Experiments[0]; p.Leased != 2 || p.Pending != 4 {
		t.Fatalf("progress after stale reap = %+v, want 2 leased / 4 pending", p)
	}

	// A heartbeat un-stales: hello again, lease again, stay within
	// three heartbeats of the last hello — the lease survives reaping.
	c.hello(WorkerHello{Worker: "beating"})
	if lr := c.lease("beating"); lr.Status != StatusLease {
		t.Fatalf("re-lease after heartbeat = %q", lr.Status)
	}
	advance(60 * time.Second)
	c.hello(WorkerHello{Worker: "beating"}) // heartbeat refreshes lastSeen
	advance(60 * time.Second)
	c.Reap()
	if p := c.Snapshot().Experiments[0]; p.Leased != 4 {
		t.Fatalf("progress with live heartbeat = %+v, want both groups' leases alive", p)
	}
}

// TestCellEndpointAndWarm covers the store-warming path: /v1/cell
// serves the exact stored envelope (404 for absent cells, 400 for
// malformed fingerprints), and Warm fills a cold store byte-identically
// from it, counting present/fetched/absent correctly.
func TestCellEndpointAndWarm(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("warm")
	coordStore := openStore(t)
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: coordStore})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// Push 4 of the 6 cells; the other 2 stay absent upstream.
	for i := 0; i < 4; i++ {
		fp, payload := payloadFor(t, e, i)
		if _, code, msg := c.push(PushRequest{Fingerprint: fp, Payload: payload}); code != 200 {
			t.Fatalf("push %d = %d %s", i, code, msg)
		}
	}

	fp0, payload0 := payloadFor(t, e, 0)
	resp, err := http.Get(srv.URL + "/v1/cell/" + fp0)
	if err != nil {
		t.Fatal(err)
	}
	got := new(bytes.Buffer)
	_, _ = got.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !bytes.Equal(got.Bytes(), payload0) {
		t.Fatalf("GET cell = %d with %d bytes, want 200 with the exact stored envelope", resp.StatusCode, got.Len())
	}
	fp5, _ := payloadFor(t, e, 5)
	if resp, _ := http.Get(srv.URL + "/v1/cell/" + fp5); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET absent cell = %d, want 404", resp.StatusCode)
	}
	for _, bad := range []string{"xyz", strings.Repeat("0", 31), strings.Repeat("A", 32), "../../etc/passwd"} {
		if resp, _ := http.Get(srv.URL + "/v1/cell/" + bad); resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			// net/http cleans path traversal to another route (404); raw
			// bad fingerprints must be 400.
			t.Fatalf("GET %q = %d, want 400/404", bad, resp.StatusCode)
		}
	}

	// Warm a cold store: 4 fetched, 2 absent (sweep still running).
	cold := openStore(t)
	st, err := Warm(context.Background(), srv.URL, cold, []harness.Experiment{e}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fetched != 4 || st.Present != 0 || st.Absent != 2 {
		t.Fatalf("first warm = %+v, want 4 fetched / 2 absent", st)
	}
	if _, ok := cold.LoadManifest(e.spec.ID, e.spec.Seed); !ok {
		t.Fatal("warm did not write the grid manifest")
	}

	// Finish the sweep upstream; a second warm fetches only the gap.
	for i := 4; i < 6; i++ {
		fp, payload := payloadFor(t, e, i)
		if _, code, msg := c.push(PushRequest{Fingerprint: fp, Payload: payload}); code != 200 {
			t.Fatalf("push %d = %d %s", i, code, msg)
		}
	}
	st, err = Warm(context.Background(), srv.URL, cold, []harness.Experiment{e}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fetched != 2 || st.Present != 4 || st.Absent != 0 {
		t.Fatalf("second warm = %+v, want 2 fetched / 4 present", st)
	}

	// The warmed store is byte-identical to the coordinator's.
	for i := 0; i < 6; i++ {
		fp := e.spec.CellKey(e.spec.CellAt(i)).Fingerprint()
		want, _ := coordStore.CellBytesByFingerprint(fp)
		got, ok := cold.CellBytesByFingerprint(fp)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("warmed cell %d differs from the coordinator's bytes", i)
		}
	}
	// And a warm run over it recomputes nothing.
	cov := cold.Coverage(resultstore.Manifest{Cells: manifestFPs(e)})
	if !cov.Complete() {
		t.Fatalf("warmed store coverage = %+v, want complete", cov)
	}
}

// TestWarmRefusesOtherKernelVariant pins the one-tier rule on the warm
// path: /v1/cell names the variants the coordinator's store records
// for the cell's grid, a local store recording a different variant
// refuses the warm before any cell lands, and an empty local store
// ends up recording the coordinator's variant.
func TestWarmRefusesOtherKernelVariant(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("tier")
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t)})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	for i := 0; i < e.spec.NumCells(); i++ {
		fp, payload := payloadFor(t, e, i)
		if _, code, msg := c.push(PushRequest{Fingerprint: fp, Payload: payload, Computed: true, KernelVariant: "sse"}); code != 200 {
			t.Fatalf("push %d = %d %s", i, code, msg)
		}
	}
	fp0, _ := payloadFor(t, e, 0)
	resp, err := http.Get(srv.URL + "/v1/cell/" + fp0)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(VariantsHeader); got != "sse" {
		t.Fatalf("GET cell %s = %q, want sse", VariantsHeader, got)
	}

	avx := openStore(t)
	m := harness.ManifestFor(e.spec)
	m.KernelVariants = []string{"avx2"}
	if err := avx.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	st, err := Warm(context.Background(), srv.URL, avx, []harness.Experiment{e}, nil)
	if !errors.Is(err, resultstore.ErrVariantConflict) {
		t.Fatalf("warm sse cells into an avx2 store = %+v, %v; want a kernel variant conflict", st, err)
	}
	if cov := avx.Coverage(m); st.Fetched != 0 || cov.Done != 0 {
		t.Fatalf("refused warm landed cells: %+v, coverage %+v", st, cov)
	}
	if got, _ := avx.LoadManifest(e.spec.ID, e.spec.Seed); len(got.KernelVariants) != 1 || got.KernelVariants[0] != "avx2" {
		t.Fatalf("refused warm changed the local variants to %v", got.KernelVariants)
	}

	empty := openStore(t)
	if st, err := Warm(context.Background(), srv.URL, empty, []harness.Experiment{e}, nil); err != nil || st.Fetched != e.spec.NumCells() {
		t.Fatalf("warm into an empty store = %+v, %v", st, err)
	}
	if got, _ := empty.LoadManifest(e.spec.ID, e.spec.Seed); len(got.KernelVariants) != 1 || got.KernelVariants[0] != "sse" {
		t.Fatalf("warmed store records variants %v, want [sse]", got.KernelVariants)
	}
}

func manifestFPs(e testExp) []string {
	var fps []string
	for i := 0; i < e.spec.NumCells(); i++ {
		fps = append(fps, e.spec.CellKey(e.spec.CellAt(i)).Fingerprint())
	}
	return fps
}

// TestChaosSweepHealsToByteIdentity is the in-process twin of `make
// chaos-smoke`: a seeded fault plan batters a two-worker sweep across
// four fault kinds and three layers (silent store corruption, server
// 500s, dropped responses, client transport errors, compute delays);
// the sweep still completes; fsck finds and quarantines the damage; a
// second clean round heals it; and the final store is byte-identical
// to an undisturbed local run.
func TestChaosSweepHealsToByteIdentity(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("chaos")

	// Reference: an undisturbed local run into its own store.
	refStore := openStore(t)
	harness.SetStore(refStore)
	harness.Run(e)
	harness.SetStore(nil)
	harness.ClearMemo()

	// Chaos round: four fault kinds across store, server and client.
	chaosStore := openStore(t)
	plan, err := faultline.ParsePlan(strings.Join([]string{
		"seed=7",
		"resultstore.save.temp=corrupt:0.5@3x1", // silent corruption on the 3rd ingest write
		"coord.server.push=http500@2x2",         // transient server failures
		"coord.server.lease=drop@3x1",           // a dropped lease or push answer mid-protocol
		"coord.client.push=err%0.4x3",           // client transport faults
		"harness.cell.compute=delay:2ms%0.5x4",  // compute jitter (never changes values)
	}, ";"))
	if err != nil {
		t.Fatal(err)
	}
	if err := faultline.Arm(plan); err != nil {
		t.Fatal(err)
	}
	defer faultline.Disarm()

	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: chaosStore})
	// Pushes wait for both workers' first lease answers, so the lease
	// failpoint's first two hits are those requests and its third, the
	// drop, is the first push answer carrying Next: its cell has landed
	// and the answer is lost. Lease requests after a wait come only once
	// every group is granted, four push answers later. The middleware
	// counts the push answers the failpoint drops.
	h := c.Handler()
	var leaseReqs, droppedPushAnswers atomic.Int64
	leased := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/lease":
			defer func() {
				if leaseReqs.Add(1) == 2 {
					close(leased)
				}
			}()
		case "/v1/push":
			<-leased
			defer func() {
				if v := recover(); v != nil {
					if v == http.ErrAbortHandler {
						droppedPushAnswers.Add(1)
					}
					panic(v)
				}
			}()
		}
		h.ServeHTTP(w, r)
	}))
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{
				URL: srv.URL, Name: fmt.Sprintf("chaos%d", i),
				Resolve: resolveOnly(e), MaxRetries: 8,
				BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
			}
			if _, err := w.Run(context.Background()); err != nil {
				t.Errorf("chaos worker %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	srv.Close()
	// The plan must actually have injected across layers — otherwise
	// this test silently degrades to the clean e2e test.
	injected := map[string]int{}
	for _, ps := range faultline.Stats() {
		injected[ps.Name] = ps.Injected
	}
	faultline.Disarm()
	for _, point := range []string{"resultstore.save.temp", "coord.server.push", "coord.server.lease"} {
		if injected[point] == 0 {
			t.Fatalf("failpoint %s never injected (stats %v) — the chaos plan went soft", point, injected)
		}
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("chaos sweep did not complete")
	}
	if n := droppedPushAnswers.Load(); n != 1 {
		t.Fatalf("the lease failpoint dropped %d push answers, want 1", n)
	}
	// The dropped push answer's cell is sent again on the retried push,
	// not stranded until its grant's LeaseTTL runs out.
	for i := 0; i < e.spec.NumCells(); i++ {
		if n := expiries(c, e, i); n != 0 {
			t.Fatalf("cell %d counted %d lease expiries, want 0", i, n)
		}
	}

	// fsck finds the silent corruption and repairs it.
	rep, err := chaosStore.Fsck(resultstore.FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damage == 0 {
		t.Fatal("chaos plan injected no detectable store damage (corrupt rule never fired?)")
	}
	if rep.Healthy() {
		t.Fatal("pre-repair report claims healthy despite damage")
	}
	rep, err = chaosStore.Fsck(resultstore.FsckOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("repair left damage: %+v", rep.Findings)
	}

	// Clean round over the repaired store: only the quarantined cells
	// reschedule, and the sweep completes.
	harness.ClearMemo() // the chaos workers memoized every cell in-process
	c2 := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: chaosStore})
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	w := &Worker{
		URL: srv2.URL, Name: "healer", Resolve: resolveOnly(e),
		MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
	}
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatalf("heal worker: %v", err)
	}

	// Byte identity with the undisturbed run, cell for cell.
	for i := 0; i < e.spec.NumCells(); i++ {
		fp := e.spec.CellKey(e.spec.CellAt(i)).Fingerprint()
		want, ok := refStore.CellBytesByFingerprint(fp)
		if !ok {
			t.Fatalf("reference store missing cell %d", i)
		}
		got, ok := chaosStore.CellBytesByFingerprint(fp)
		if !ok {
			t.Fatalf("healed store missing cell %d", i)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cell %d: healed bytes differ from the undisturbed run", i)
		}
	}
}
