package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fp8quant/internal/evalx"
	"fp8quant/internal/harness"
	"fp8quant/internal/resultstore"
)

// testExp is a synthetic grid experiment: cheap, pure cells whose
// results are a deterministic function of the cell coordinates.
type testExp struct {
	id   string
	spec harness.GridSpec
	run  func(harness.Cell) evalx.Result
}

func (e testExp) ID() string                          { return e.id }
func (e testExp) Title() string                       { return "test " + e.id }
func (e testExp) Spec() harness.GridSpec              { return e.spec }
func (e testExp) RunCell(c harness.Cell) evalx.Result { return e.run(c) }
func (e testExp) Render(g *harness.Grid) *harness.Report {
	var b strings.Builder
	vals := map[string]float64{}
	for i, r := range g.Results {
		key := g.Spec.KeyString(g.Spec.CellAt(i))
		fmt.Fprintf(&b, "%s qacc=%.4f\n", key, r.QAcc)
		vals["qacc_"+key] = r.QAcc
	}
	return &harness.Report{Text: b.String(), Values: vals}
}

// newTestExp builds a 3x2 synthetic experiment and a counter of fresh
// RunCell invocations.
func newTestExp(id string) (testExp, *atomic.Int64) {
	var computes atomic.Int64
	spec := harness.GridSpec{
		ID:   id + "-grid",
		Seed: 11,
		Axes: []harness.Axis{
			{Name: "model", Values: []string{"ma", "mb", "mc"}},
			{Name: "recipe", Values: []string{"r1", "r2"}},
		},
	}
	run := func(c harness.Cell) evalx.Result {
		computes.Add(1)
		return evalx.Result{
			Model: c.Values[0], Recipe: c.Values[1],
			BaseAcc: 1, QAcc: 1 - float64(c.Index)/100,
			RelLoss: float64(c.Index) / 100, Pass: c.Index == 0,
			Metrics: map[string]float64{"aux": float64(c.Index) * 1.5},
		}
	}
	return testExp{id: id, spec: spec, run: run}, &computes
}

// withHarnessState isolates the process-global harness cache layers.
func withHarnessState(t testing.TB) {
	t.Helper()
	harness.ClearMemo()
	harness.SetStore(nil)
	t.Cleanup(func() {
		harness.SetStore(nil)
		harness.ClearMemo()
	})
}

func openStore(t *testing.T) *resultstore.Store {
	t.Helper()
	s, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestCoord(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// resolveOnly returns a Resolve that knows exactly the given experiments.
func resolveOnly(exps ...harness.Experiment) func(string) (harness.Experiment, bool) {
	return func(id string) (harness.Experiment, bool) {
		for _, e := range exps {
			if e.ID() == id {
				return e, true
			}
		}
		return nil, false
	}
}

// payloadFor encodes a cell's store envelope the way a worker would.
func payloadFor(t testing.TB, e testExp, idx int) (string, []byte) {
	t.Helper()
	spec := e.spec
	c := spec.CellAt(idx)
	k := spec.CellKey(c)
	b, err := resultstore.EncodeCell(k, e.run(c))
	if err != nil {
		t.Fatal(err)
	}
	return k.Fingerprint(), b
}

// TestEndToEndThreeWorkers is the tentpole contract: a coordinator and
// three concurrent pull-based workers complete a grid over HTTP, the
// coordinator's store ends up byte-identical to a local -workers 1
// run's store, and a warm render from it reproduces the local report
// exactly with zero recomputation.
func TestEndToEndThreeWorkers(t *testing.T) {
	withHarnessState(t)
	e, computes := newTestExp("e2e")
	coordStore := openStore(t)
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: coordStore})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make([]error, 3)
	stats := make([]WorkerStats, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{
				URL: srv.URL, Name: fmt.Sprintf("w%d", i),
				Resolve: resolveOnly(e), MaxRetries: 3,
				BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
			}
			stats[i], errs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("coordinator not complete after all workers exited")
	}
	snap := c.Snapshot()
	if !snap.Complete || snap.Experiments[0].Done != 6 || snap.Experiments[0].Failed != 0 {
		t.Fatalf("snapshot = %+v, want 6 done / complete", snap.Experiments[0])
	}
	totalFresh := 0
	for _, st := range stats {
		totalFresh += st.Computed
		if st.Failed != 0 {
			t.Fatalf("worker stats report failures: %+v", st)
		}
	}
	if totalFresh != 6 {
		t.Fatalf("workers computed %d cells fresh, want 6 (each cell leased exactly once)", totalFresh)
	}

	// Local single-worker run into a fresh store for the identity check.
	harness.ClearMemo()
	localStore := openStore(t)
	harness.SetStore(localStore)
	harness.SetWorkers(1)
	defer harness.SetWorkers(0)
	localRep := harness.Run(e)

	spec := e.Spec()
	for i := 0; i < spec.NumCells(); i++ {
		fp := spec.CellKey(spec.CellAt(i)).Fingerprint()
		got, ok := coordStore.CellBytesByFingerprint(fp)
		if !ok {
			t.Fatalf("cell %d (%s) missing from coordinator store", i, fp)
		}
		want, ok := localStore.CellBytesByFingerprint(fp)
		if !ok {
			t.Fatalf("cell %d (%s) missing from local store", i, fp)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("cell %d (%s): pushed bytes differ from local store bytes", i, fp)
		}
	}

	// Warm render from the coordinator's store: byte-identical report,
	// zero recomputes.
	harness.ClearMemo()
	harness.SetStore(coordStore)
	computes.Store(0)
	warmRep := harness.Run(e)
	if computes.Load() != 0 {
		t.Fatalf("warm run against coordinator store recomputed %d cells, want 0", computes.Load())
	}
	if warmRep.Text != localRep.Text {
		t.Errorf("warm report from coordinator store differs from local run:\n--- coord ---\n%s\n--- local ---\n%s", warmRep.Text, localRep.Text)
	}
}

// TestLeaseExpiryRequeue drives the fake clock past a lease's TTL and
// checks the cell requeues: a crashed worker costs one timeout.
func TestLeaseExpiryRequeue(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("expiry") // cells 0,1 ma; 2,3 mb; 4,5 mc
	clock, advance := fakeClock()
	c := newTestCoord(t, Config{
		Experiments: []harness.Experiment{e}, Store: openStore(t),
		LeaseTTL: time.Minute, Clock: clock,
	})
	lr := c.lease("w1")
	if lr.Status != StatusLease {
		t.Fatalf("first lease status = %q, want lease", lr.Status)
	}
	first := lr.Lease.Fingerprint

	// Within the TTL the cell stays leased; the grid has other cells,
	// so the next lease grants a different one.
	if lr2 := c.lease("w2"); lr2.Status != StatusLease || lr2.Lease.Fingerprint == first {
		t.Fatalf("second lease = %+v, want a different cell", lr2)
	}
	advance(2 * time.Minute)
	// Both leases have expired; the pool is fully pending again and the
	// first cell is grantable.
	seen := map[string]bool{}
	for i := 0; i < 6; i++ {
		lr := c.lease("w3")
		if lr.Status != StatusLease {
			t.Fatalf("post-expiry lease %d status = %q, want lease", i, lr.Status)
		}
		seen[lr.Lease.Fingerprint] = true
	}
	if !seen[first] {
		t.Fatal("expired cell was not requeued")
	}
	if lr := c.lease("w3"); lr.Status != StatusWait {
		t.Fatalf("lease with everything out = %q, want wait", lr.Status)
	}
	// Only the two cells sent to w1 and w2 counted an expiry; their
	// group partners, reserved but never sent, counted none.
	if got := []int{expiries(c, e, 0), expiries(c, e, 1), expiries(c, e, 2), expiries(c, e, 3)}; !slices.Equal(got, []int{1, 0, 1, 0}) {
		t.Fatalf("expiries of cells 0-3 = %v, want [1 0 1 0]", got)
	}

	// A cell that keeps expiring is eventually declared failed, not
	// requeued forever: on its expiry past maxExpiries. Every cell has
	// now been sent once more; cells 1, 3, 4 and 5 hold the fewest
	// expiries (1 once the next lease reaps). Leasing everything out
	// and expiring it once a round, they fail on the lease after
	// maxExpiries rounds, and not one round sooner: every round, the
	// last included, still leases cells.
	advance(2 * time.Minute)
	for round := 1; round <= maxExpiries; round++ {
		leased := 0
		for c.lease("w4").Status == StatusLease {
			leased++
		}
		if leased == 0 {
			t.Fatalf("round %d of %d leased no cell: cells failed before exceeding %d expiries", round, maxExpiries, maxExpiries)
		}
		advance(2 * time.Minute)
	}
	if lr := c.lease("w5"); lr.Status != StatusDone {
		t.Fatalf("lease after max expiries = %q, want done (all cells failed)", lr.Status)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("coordinator not complete after every cell failed out")
	}
	// Each cell failed on its fourth expiry, as the README says.
	failed := c.FailedCells()
	if len(failed) != 6 {
		t.Fatalf("FailedCells = %v, want 6 lease-expiry entries", failed)
	}
	for _, f := range failed {
		if !strings.Contains(f, "lease expired 4 times") {
			t.Fatalf("FailedCells entry %q, want a cell that failed on its fourth expiry", f)
		}
	}
}

// TestKilledWorkerRecovery is the crash story end to end over HTTP: a
// worker leases a cell and dies silently; with a short real TTL the
// cell requeues and live workers finish the grid.
func TestKilledWorkerRecovery(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("killed")
	c := newTestCoord(t, Config{
		Experiments: []harness.Experiment{e}, Store: openStore(t),
		LeaseTTL: 150 * time.Millisecond,
	})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// The doomed worker: lease over the wire, then vanish.
	body, _ := json.Marshal(LeaseRequest{Worker: "doomed"})
	resp, err := http.Post(srv.URL+"/v1/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var lr LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if lr.Status != StatusLease {
		t.Fatalf("doomed worker lease = %q, want lease", lr.Status)
	}

	// Reaper stand-in for fp8coord's ticker.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.Reap()
			case <-stop:
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{
				URL: srv.URL, Name: fmt.Sprintf("live%d", i),
				Resolve: resolveOnly(e), MaxRetries: 3,
				BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond,
			}
			if _, err := w.Run(context.Background()); err != nil {
				t.Errorf("live worker %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	snap := c.Snapshot()
	if !snap.Complete || snap.Experiments[0].Done != 6 {
		t.Fatalf("snapshot after killed worker = %+v, want complete with 6 done", snap.Experiments[0])
	}
}

// TestPushRejections covers the push protocol edges: duplicates are
// idempotent, conflicting valid payloads are a hard 409 naming the
// cell, unknown cells 404, and Err pushes mark the cell failed.
func TestPushRejections(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("push")
	store := openStore(t)
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: store})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	doPush := func(req PushRequest) (PushResponse, int, string) {
		t.Helper()
		b, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+"/v1/push", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var er errorResponse
			_ = json.NewDecoder(resp.Body).Decode(&er)
			return PushResponse{}, resp.StatusCode, er.Error
		}
		var pr PushResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr, resp.StatusCode, ""
	}

	fp, payload := payloadFor(t, e, 0)
	if pr, code, _ := doPush(PushRequest{Fingerprint: fp, Payload: payload, Computed: true}); code != 200 || pr.Status != PushStored {
		t.Fatalf("first push = %v/%d, want stored/200", pr, code)
	}
	// Identical duplicate: idempotent (an expired lease whose work was
	// redone elsewhere).
	if pr, code, _ := doPush(PushRequest{Fingerprint: fp, Payload: payload}); code != 200 || pr.Status != PushIdentical {
		t.Fatalf("duplicate push = %v/%d, want identical/200", pr, code)
	}
	// Conflicting valid payload: same key, different result bytes.
	k := e.spec.CellKey(e.spec.CellAt(0))
	conflicting, err := resultstore.EncodeCell(k, evalx.Result{Model: "ma", Recipe: "r1", QAcc: 0.123})
	if err != nil {
		t.Fatal(err)
	}
	if _, code, msg := doPush(PushRequest{Fingerprint: fp, Payload: conflicting}); code != http.StatusConflict || !strings.Contains(msg, fp) {
		t.Fatalf("conflicting push = %d %q, want 409 naming the fingerprint", code, msg)
	}
	// The store must still hold the original bytes.
	if got, _ := store.CellBytesByFingerprint(fp); !bytes.Equal(got, payload) {
		t.Fatal("conflicting push mutated the stored payload")
	}
	// Unknown cell: 404.
	if _, code, _ := doPush(PushRequest{Fingerprint: strings.Repeat("0", 32), Payload: payload}); code != http.StatusNotFound {
		t.Fatalf("unknown-cell push = %d, want 404", code)
	}
	// Garbage payload for a known cell: rejected, cell stays pending.
	fp1, _ := payloadFor(t, e, 1)
	if _, code, _ := doPush(PushRequest{Fingerprint: fp1, Payload: []byte(`{"nope":1}`)}); code != http.StatusConflict {
		t.Fatalf("invalid payload push = %d, want 409", code)
	}
	// Err push: recorded as a permanent cell failure.
	fp2, _ := payloadFor(t, e, 2)
	if pr, code, _ := doPush(PushRequest{Fingerprint: fp2, Err: "panic in cell: boom"}); code != 200 || pr.Status != PushFailedRecorded {
		t.Fatalf("err push = %v/%d, want failed-recorded/200", pr, code)
	}
	snap := c.Snapshot()
	if p := snap.Experiments[0]; p.Done != 1 || p.Failed != 1 {
		t.Fatalf("progress after pushes = %+v, want 1 done / 1 failed", p)
	}
	if failed := c.FailedCells(); len(failed) != 1 || !strings.Contains(failed[0], "boom") {
		t.Fatalf("FailedCells = %v", failed)
	}
}

// TestPushVariantProvenance pins the coordinator's side of kernel-tier
// provenance: freshly computed pushes stamp the grid manifest with the
// worker's variant, a second distinct tier is refused before its bytes
// land, and variant-less pushes (older workers, cache hits) stamp
// nothing.
func TestPushVariantProvenance(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("prov")
	store := openStore(t)
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: store})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	doPush := func(req PushRequest) (int, string) {
		t.Helper()
		b, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+"/v1/push", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er.Error
	}
	variants := func() []string {
		t.Helper()
		m, ok := store.LoadManifest(e.spec.ID, e.spec.Seed)
		if !ok {
			t.Fatal("grid manifest missing")
		}
		return m.KernelVariants
	}

	// A variant-less push (older worker) stamps nothing.
	fp0, payload0 := payloadFor(t, e, 0)
	if code, _ := doPush(PushRequest{Fingerprint: fp0, Payload: payload0, Computed: true}); code != 200 {
		t.Fatalf("variant-less push = %d, want 200", code)
	}
	if v := variants(); len(v) != 0 {
		t.Fatalf("variants after variant-less push = %v, want none", v)
	}

	// A fresh compute stamps its tier; a second same-tier push is a no-op.
	fp1, payload1 := payloadFor(t, e, 1)
	if code, _ := doPush(PushRequest{Fingerprint: fp1, Payload: payload1, Computed: true, KernelVariant: "sse"}); code != 200 {
		t.Fatalf("sse push = %d, want 200", code)
	}
	fp2, payload2 := payloadFor(t, e, 2)
	if code, _ := doPush(PushRequest{Fingerprint: fp2, Payload: payload2, Computed: true, KernelVariant: "sse"}); code != 200 {
		t.Fatalf("second sse push = %d, want 200", code)
	}
	if v := variants(); len(v) != 1 || v[0] != "sse" {
		t.Fatalf("variants after sse pushes = %v, want [sse]", v)
	}

	// A different tier is refused before its bytes land.
	fp3, payload3 := payloadFor(t, e, 3)
	code, msg := doPush(PushRequest{Fingerprint: fp3, Payload: payload3, Computed: true, KernelVariant: "avx2"})
	if code != http.StatusConflict || !strings.Contains(msg, "kernel variant") {
		t.Fatalf("avx2 push = %d %q, want 409 naming the variant conflict", code, msg)
	}
	if got, ok := store.CellBytesByFingerprint(fp3); ok {
		t.Fatalf("refused push still stored %d bytes", len(got))
	}
	if v := variants(); len(v) != 1 || v[0] != "sse" {
		t.Fatalf("variants after refused push = %v, want [sse]", v)
	}

	// A cache-hit push from the other tier (Computed=false) carries no
	// provenance claim and is accepted — the bytes were produced
	// elsewhere under the recorded tier.
	if code, _ := doPush(PushRequest{Fingerprint: fp3, Payload: payload3}); code != 200 {
		t.Fatalf("cache-hit push = %d, want 200", code)
	}
}

// TestPushVariantCheckedInMemory: the coordinator reads each grid's
// recorded kernel variants once, at startup, and checks pushes against
// that copy, so a manifest lost or damaged on disk mid-sweep cannot let
// a second tier in, and /v1/cell still names the recorded tier.
func TestPushVariantCheckedInMemory(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("provmem")
	store := openStore(t)
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: store})
	fp0, payload0 := payloadFor(t, e, 0)
	if _, code, msg := c.push(PushRequest{Fingerprint: fp0, Payload: payload0, Computed: true, KernelVariant: "sse"}); code != 200 {
		t.Fatalf("sse push = %d %s", code, msg)
	}
	if err := os.WriteFile(store.ManifestPath(e.spec.ID, e.spec.Seed), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	fp1, payload1 := payloadFor(t, e, 1)
	_, code, msg := c.push(PushRequest{Fingerprint: fp1, Payload: payload1, Computed: true, KernelVariant: "avx2"})
	if code != http.StatusConflict || !strings.Contains(msg, "kernel variant") {
		t.Fatalf("avx2 push after the manifest was damaged = %d %q, want 409 naming the variant conflict", code, msg)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/cell/" + fp0)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := resp.Header.Get(VariantsHeader); v != "sse" {
		t.Fatalf("%s = %q, want the recorded sse", VariantsHeader, v)
	}
}

// TestSeedFromStore checks a coordinator over a half-full store
// schedules only the missing cells.
func TestSeedFromStore(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("seed")
	store := openStore(t)
	spec := e.Spec()
	for _, i := range []int{1, 4} {
		cell := spec.CellAt(i)
		if err := store.SaveCell(spec.CellKey(cell), e.run(cell)); err != nil {
			t.Fatal(err)
		}
	}
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: store})
	snap := c.Snapshot()
	if p := snap.Experiments[0]; p.Done != 2 || p.Pending != 4 {
		t.Fatalf("seeded progress = %+v, want 2 done / 4 pending", p)
	}
	// The missing cells are ma's 0, mb's 2 and 3, and mc's 5: three
	// groups holding four cells.
	granted := map[string]bool{}
	for i := 0; i < 3; i++ {
		for _, l := range grant(t, c, "w") {
			granted[l.Fingerprint] = true
		}
	}
	if lr := c.lease("w"); len(granted) != 4 || lr.Status != StatusWait {
		t.Fatalf("three grants covered %d cells, then %q; want 4 cells, then wait", len(granted), lr.Status)
	}
	for _, i := range []int{1, 4} {
		if granted[spec.CellKey(spec.CellAt(i)).Fingerprint()] {
			t.Fatalf("cell %d was leased despite being in the store", i)
		}
	}
}

// TestSeedSchedulesMismatchedCell: a stored file at a cell's name whose
// envelope is another cell's (a hand-renamed or cross-wired copy) is
// no hit for the reads, so the coordinator schedules the cell.
func TestSeedSchedulesMismatchedCell(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("mismatch")
	store := openStore(t)
	fp, _ := payloadFor(t, e, 0)
	_, other := payloadFor(t, e, 1)
	if err := os.WriteFile(filepath.Join(store.Dir(), "c-"+fp+".json"), other, 0o644); err != nil {
		t.Fatal(err)
	}
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: store})
	if p := c.Snapshot().Experiments[0]; p.Done != 0 || p.Pending != 6 {
		t.Fatalf("seeded progress = %+v, want 0 done / 6 pending", p)
	}
	if l := next(t, c, "w"); l.Fingerprint != fp {
		t.Fatalf("first lease = cell %d, want cell 0 (its stored file is cell 1's)", l.Index)
	}
}

// TestGracefulDrain: draining refuses new leases, still accepts the
// in-flight push, and a worker mid-cell finishes and exits cleanly.
func TestGracefulDrain(t *testing.T) {
	withHarnessState(t)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	e, _ := newTestExp("drain")
	inner := e.run
	e.run = func(c harness.Cell) evalx.Result {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return inner(c)
	}
	store := openStore(t)
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: store})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	w := &Worker{
		URL: srv.URL, Name: "drainee", Resolve: resolveOnly(e),
		MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
	}
	done := make(chan WorkerStats, 1)
	go func() {
		stats, err := w.Run(context.Background())
		if err != nil {
			t.Errorf("worker: %v", err)
		}
		done <- stats
	}()
	<-started
	c.Drain()
	if n := c.ActiveLeases(); n != 1 {
		t.Fatalf("leases once draining = %d, want the in-flight cell's alone (its group partner requeued)", n)
	}
	if lr := c.lease("other"); lr.Status != StatusDraining {
		t.Fatalf("lease while draining = %q, want draining", lr.Status)
	}
	close(release)
	stats := <-done
	if stats.Computed != 1 {
		t.Fatalf("drained worker computed %d cells, want exactly the in-flight one", stats.Computed)
	}
	snap := c.Snapshot()
	if !snap.Draining || snap.Experiments[0].Done != 1 {
		t.Fatalf("post-drain snapshot = %+v, want draining with the in-flight cell done", snap)
	}
}

// TestProgressLongPoll: an up-to-date poller blocks until a state
// change; a stale gen returns immediately.
func TestProgressLongPoll(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("poll")
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t)})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	getProgress := func(query string) ProgressSnapshot {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/progress" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap ProgressSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}
	snap := getProgress("")
	if snap.Experiments[0].Pending != 6 {
		t.Fatalf("initial snapshot = %+v", snap.Experiments[0])
	}
	// Stale gen: immediate.
	if s := getProgress("?gen=-1&timeout_ms=60000"); s.Gen != snap.Gen {
		t.Fatalf("stale-gen poll returned gen %d, want %d", s.Gen, snap.Gen)
	}
	// Current gen with a short timeout: returns unchanged after timeout.
	if s := getProgress(fmt.Sprintf("?gen=%d&timeout_ms=50", snap.Gen)); s.Gen != snap.Gen {
		t.Fatalf("timeout poll returned gen %d, want unchanged %d", s.Gen, snap.Gen)
	}
	// Current gen, state changes mid-poll: unblocks with the new gen.
	type res struct{ snap ProgressSnapshot }
	ch := make(chan res, 1)
	go func() {
		ch <- res{getProgress(fmt.Sprintf("?gen=%d&timeout_ms=10000", snap.Gen))}
	}()
	time.Sleep(30 * time.Millisecond) // let the poll park
	if lr := c.lease("w"); lr.Status != StatusLease {
		t.Fatalf("lease = %q", lr.Status)
	}
	select {
	case r := <-ch:
		if r.snap.Gen <= snap.Gen || r.snap.Experiments[0].Leased != 2 {
			t.Fatalf("unblocked poll = %+v, want newer gen with the group's 2 cells leased", r.snap)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll did not unblock on state change")
	}
	// Coverage endpoint serves the text table.
	resp, err := http.Get(srv.URL + "/v1/coverage")
	if err != nil {
		t.Fatal(err)
	}
	b := new(bytes.Buffer)
	_, _ = b.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(b.String(), "poll") || !strings.Contains(b.String(), "experiment") {
		t.Fatalf("coverage text = %q", b.String())
	}
}

// TestSharedGridDeduplication: two experiments over the same grid share
// cells — the coordinator schedules each cell once, in one group per
// model, and both schedules complete together.
func TestSharedGridDeduplication(t *testing.T) {
	withHarnessState(t)
	ea, _ := newTestExp("shared")
	eb := testExp{id: "shared-b", spec: ea.spec, run: ea.run}
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{ea, eb}, Store: openStore(t)})
	cells := map[string]bool{}
	for {
		lr := c.lease("w")
		if lr.Status != StatusLease {
			break
		}
		if cells[lr.Lease.Fingerprint] {
			t.Fatalf("cell %s leased twice", lr.Lease.Key)
		}
		cells[lr.Lease.Fingerprint] = true
		if len(cells) > 12 {
			t.Fatal("more leases than distinct cells")
		}
	}
	if groups := c.Workers().Workers[0].Leases; groups != 3 || len(cells) != 6 {
		t.Fatalf("granted %d groups of %d cells, want 3 groups of 6 cells (shared grid deduplicated)", groups, len(cells))
	}
	snap := c.Snapshot()
	if len(snap.Experiments) != 2 || snap.Experiments[0].Leased != 6 || snap.Experiments[1].Leased != 6 {
		t.Fatalf("shared-grid progress = %+v, want both experiments tracking the same 6 leased cells", snap.Experiments)
	}
}
