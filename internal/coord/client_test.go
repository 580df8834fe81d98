package coord

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fp8quant/internal/harness"
)

// TestWorkerRetryBudgetExhausted: a coordinator that never comes back
// (connection refused) burns the bounded retry budget, then the worker
// hard-fails instead of spinning forever.
func TestWorkerRetryBudgetExhausted(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // nothing listens here anymore: every dial is refused
	w := &Worker{
		URL: url, Name: "orphan", MaxRetries: 2,
		BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
		Resolve: resolveOnly(),
	}
	_, err := w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("err = %v, want retry budget exhausted", err)
	}
}

// TestWorkerRetriesTransient5xx: 5xx responses are transient — the
// worker backs off and retries, and succeeds once the server recovers.
func TestWorkerRetriesTransient5xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/workers" {
			// Heartbeat hellos are uncounted: this test counts leases. A
			// 404 also exercises the worker's tolerance of coordinators
			// predating worker registration.
			http.NotFound(w, r)
			return
		}
		if calls.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode(LeaseResponse{Status: StatusDone})
	}))
	defer srv.Close()
	w := &Worker{
		URL: srv.URL, Name: "patient", MaxRetries: 5,
		BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
		Resolve: resolveOnly(),
	}
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker did not survive transient 5xx: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (two 503s then success)", got)
	}
}

// TestWorkerHardFailsOn4xx: protocol errors are not retried — the
// identical request cannot succeed, so the worker fails on the first
// response.
func TestWorkerHardFailsOn4xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/workers" {
			http.NotFound(w, r) // heartbeats are uncounted; leases are the test
			return
		}
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(errorResponse{Error: "you sent nonsense"})
	}))
	defer srv.Close()
	w := &Worker{
		URL: srv.URL, Name: "confused", MaxRetries: 5,
		BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
		Resolve: resolveOnly(),
	}
	_, err := w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "you sent nonsense") {
		t.Fatalf("err = %v, want the server's 4xx message", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (4xx is never retried)", got)
	}
}

// TestWorkerRefusesScheduleSkew: a lease whose fingerprint does not
// match the worker's own spec-derived address is pushed back as a
// failure, never computed — two builds disagreeing on the schedule
// must fail loudly.
func TestWorkerRefusesScheduleSkew(t *testing.T) {
	withHarnessState(t)
	e, computes := newTestExp("skew")
	var w Worker
	w.Name = "skewed"
	w.Resolve = resolveOnly(e)
	w.defaults()
	var stats WorkerStats
	push := w.computeLease(Lease{
		ID: "l-1", Exp: "skew", Index: 0, Key: "model=ma,recipe=r1",
		Fingerprint: strings.Repeat("0", 32),
	}, &stats, nil)
	if push.Err == "" || !strings.Contains(push.Err, "fingerprint mismatch") {
		t.Fatalf("push.Err = %q, want fingerprint mismatch", push.Err)
	}
	if computes.Load() != 0 {
		t.Fatal("worker computed a cell under a mismatched fingerprint")
	}
	// Unknown experiment and out-of-range index fail the same way.
	if p := w.computeLease(Lease{Exp: "nope", Index: 0}, &stats, nil); !strings.Contains(p.Err, "does not know experiment") {
		t.Fatalf("unknown-exp push.Err = %q", p.Err)
	}
	if p := w.computeLease(Lease{Exp: "skew", Index: 99}, &stats, nil); !strings.Contains(p.Err, "out of range") {
		t.Fatalf("out-of-range push.Err = %q", p.Err)
	}
}

// TestWorkerBackoffBounds: backoff grows exponentially from BaseDelay,
// caps at MaxDelay, and jitter treats the computed delay as a floor —
// every jittered delay lies in [d, 3d/2). The lower bound is the
// regression guard: jitter once spread over [d/2, d), which let
// workers sleep less than a server-requested RetryMs.
func TestWorkerBackoffBounds(t *testing.T) {
	w := &Worker{Name: "jitter", BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	w.defaults()
	for attempt := 1; attempt <= 8; attempt++ {
		raw := w.BaseDelay << uint(attempt-1)
		if raw > w.MaxDelay || raw <= 0 {
			raw = w.MaxDelay
		}
		for i := 0; i < 20; i++ {
			got := w.backoff(attempt)
			if got < raw || got >= raw+raw/2 {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, got, raw, raw+raw/2)
			}
		}
	}
}

// TestWorkerWaitHonorsServerRetryMs: a StatusWait response's RetryMs is
// a floor — the worker must not come back for another lease before it
// elapses. (The old jitter halved the server's delay half the time.)
func TestWorkerWaitHonorsServerRetryMs(t *testing.T) {
	const retryMs = 80
	var calls atomic.Int64
	var firstLease, secondLease time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/workers" {
			http.NotFound(w, r) // heartbeats are uncounted; leases are the test
			return
		}
		switch calls.Add(1) {
		case 1:
			firstLease = time.Now()
			_ = json.NewEncoder(w).Encode(LeaseResponse{Status: StatusWait, RetryMs: retryMs})
		default:
			secondLease = time.Now()
			_ = json.NewEncoder(w).Encode(LeaseResponse{Status: StatusDone})
		}
	}))
	defer srv.Close()
	w := &Worker{URL: srv.URL, Name: "waiter", Resolve: resolveOnly()}
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", calls.Load())
	}
	if waited := secondLease.Sub(firstLease); waited < retryMs*time.Millisecond {
		t.Fatalf("worker re-leased after %v, want ≥ %v (server RetryMs is a floor)", waited, retryMs*time.Millisecond)
	}
}

// TestRealGridSubSweep drives a real registered experiment (a one-model
// slice of table3) through the coordinator with two workers and checks
// the pushed store serves a warm filtered run with zero recomputation.
// The full-grid proof lives in `make coord-smoke`; this keeps a real
// RunCell path (model build, quantization, eval) under `go test`.
func TestRealGridSubSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("real model evaluation in -short mode")
	}
	withHarnessState(t)
	e, ok := harness.Get("table3")
	if !ok {
		t.Fatal("table3 not registered")
	}
	filter, err := harness.ParseFilter("model=resnet50")
	if err != nil {
		t.Fatal(err)
	}
	coordStore := openStore(t)
	c := newTestCoord(t, Config{
		Experiments: []harness.Experiment{e}, Filter: filter, Store: coordStore,
	})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	for i := 0; i < 2; i++ {
		// Sequential workers: real cells share the process-global model
		// reference cache, and the point here is the protocol + store
		// path, not in-process parallelism (covered by the e2e test).
		w := &Worker{
			URL: srv.URL, Name: "real", MaxRetries: 3,
			BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
		}
		if _, err := w.Run(context.Background()); err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	snap := c.Snapshot()
	if !snap.Complete || snap.Experiments[0].Done != 4 {
		t.Fatalf("snapshot = %+v, want the 4 resnet50 cells done", snap.Experiments[0])
	}
	// Warm filtered run against the pushed store: everything is served
	// from it.
	harness.ClearMemo()
	harness.SetStore(coordStore)
	before := coordStore.Stats()
	if _, _, err := harness.RunGrid(e, filter); err != nil {
		t.Fatal(err)
	}
	after := coordStore.Stats()
	if misses := after.Misses - before.Misses; misses != 0 {
		t.Fatalf("warm filtered run had %d store misses, want 0", misses)
	}
}
