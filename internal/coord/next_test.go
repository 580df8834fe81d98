package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fp8quant/internal/faultline"
	"fp8quant/internal/harness"
)

// wireCounter wraps a coordinator's handler and counts, per worker, its
// POST /v1/lease requests, its pushes, and the wait answers it was
// sent, in lease answers and in push answers' Next.
type wireCounter struct {
	h http.Handler

	mu                    sync.Mutex
	leases, pushes, waits map[string]int
}

func newWireCounter(h http.Handler) *wireCounter {
	return &wireCounter{h: h, leases: map[string]int{}, pushes: map[string]int{}, waits: map[string]int{}}
}

func (wc *wireCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/lease" && r.URL.Path != "/v1/push" {
		wc.h.ServeHTTP(w, r)
		return
	}
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	var who LeaseRequest
	_ = json.Unmarshal(body, &who)
	rec := httptest.NewRecorder()
	wc.h.ServeHTTP(rec, r)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(rec.Code)
	_, _ = w.Write(rec.Body.Bytes())

	var lr LeaseResponse
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if r.URL.Path == "/v1/lease" {
		wc.leases[who.Worker]++
		_ = json.Unmarshal(rec.Body.Bytes(), &lr)
	} else {
		wc.pushes[who.Worker]++
		var pr PushResponse
		if json.Unmarshal(rec.Body.Bytes(), &pr) == nil && pr.Next != nil {
			lr = *pr.Next
		}
	}
	if lr.Status == StatusWait {
		wc.waits[who.Worker]++
	}
}

// TestOneLeaseRequestPerWorker: in a clean two-worker sweep each push
// answer carries the worker's next cell, so a worker posts /v1/lease
// once to start and once after each wait it is answered, however many
// cells it computes.
func TestOneLeaseRequestPerWorker(t *testing.T) {
	withHarnessState(t)
	const models, recipes = 6, 3
	e := modelGrid("onelease", models, recipes)
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t), LeaseTTL: time.Hour, WaitRetry: 10 * time.Millisecond})
	wc := newWireCounter(c.Handler())
	srv := httptest.NewServer(wc)
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{URL: srv.URL, Name: fmt.Sprintf("w%d", i), Resolve: resolveOnly(e),
				MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}
			if _, err := w.Run(context.Background()); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if !c.Snapshot().Complete {
		t.Fatal("sweep incomplete after every worker exited")
	}
	pushes := 0
	for _, w := range []string{"w0", "w1"} {
		pushes += wc.pushes[w]
		if wc.leases[w] != 1+wc.waits[w] {
			t.Errorf("%s posted /v1/lease %d times with %d wait answers, want %d", w, wc.leases[w], wc.waits[w], 1+wc.waits[w])
		}
	}
	if pushes != models*recipes {
		t.Errorf("%d pushes for %d cells", pushes, models*recipes)
	}
}

// TestExitingPushGetsNoNext: an exiting worker's push asks for nothing
// more, whatever its Next says: the answer carries no lease, and the
// cells of its grant it was never sent requeue at once.
func TestExitingPushGetsNoNext(t *testing.T) {
	withHarnessState(t)
	e := threeRecipes("exitnext")
	clock, _ := fakeClock()
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t), Clock: clock})
	l := next(t, c, "w")
	fp, payload := payloadFor(t, e, l.Index)
	pr, code, msg := c.push(PushRequest{Worker: "w", LeaseID: l.ID, Fingerprint: fp, Payload: payload,
		Computed: true, Exiting: true, Next: true})
	if code != http.StatusOK || pr.Next != nil {
		t.Fatalf("exiting push = %d %s with next %+v, want 200 without a next", code, msg, pr.Next)
	}
	if n, p := c.ActiveLeases(), c.Snapshot().Experiments[0]; n != 0 || p.Done != 1 || p.Pending != 5 {
		t.Fatalf("after the exiting push: %d leases, progress %+v; want 0 leases, 1 done / 5 pending", n, p)
	}
}

// TestFailedPushCarriesNext: a push recording a cell failure is a
// settled cell like any other, and its answer sends the grant's next
// cell.
func TestFailedPushCarriesNext(t *testing.T) {
	withHarnessState(t)
	e := threeRecipes("failnext")
	clock, _ := fakeClock()
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t), Clock: clock})
	l := next(t, c, "w")
	pr, code, msg := c.push(PushRequest{Worker: "w", LeaseID: l.ID, Fingerprint: l.Fingerprint, Err: "boom", Next: true})
	if code != http.StatusOK || pr.Status != PushFailedRecorded {
		t.Fatalf("failed push = %d %q %s, want 200 %q", code, pr.Status, msg, PushFailedRecorded)
	}
	if pr.Next == nil || pr.Next.Status != StatusLease || pr.Next.Lease.Index != 1 || pr.Next.Lease.ID != l.ID {
		t.Fatalf("failed push's next = %+v, want cell 1 of grant %s", pr.Next, l.ID)
	}
}

// TestIngestFailurePushGetsNoNext: a push the store could not ingest
// is answered 500 without a next cell and consumes none, so the
// worker's retry is sent the cell the failed answer would have sent.
func TestIngestFailurePushGetsNoNext(t *testing.T) {
	withHarnessState(t)
	e := threeRecipes("ingestnext")
	clock, _ := fakeClock()
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t), Clock: clock})
	l := next(t, c, "w")
	plan, err := faultline.ParsePlan("resultstore.ingest.begin=err@1x1")
	if err != nil {
		t.Fatal(err)
	}
	if err := faultline.Arm(plan); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultline.Disarm)
	fp, payload := payloadFor(t, e, l.Index)
	req := PushRequest{Worker: "w", LeaseID: l.ID, Fingerprint: fp, Payload: payload, Computed: true, Next: true}
	if pr, code, _ := c.push(req); code != http.StatusInternalServerError || pr.Next != nil {
		t.Fatalf("push over a failing store = %d with next %+v, want 500 without a next", code, pr.Next)
	}
	pr, code, msg := c.push(req)
	if code != http.StatusOK || pr.Status != PushStored {
		t.Fatalf("retried push = %d %q %s, want 200 stored", code, pr.Status, msg)
	}
	if pr.Next == nil || pr.Next.Status != StatusLease || pr.Next.Lease.Index != 1 {
		t.Fatalf("retried push's next = %+v, want cell 1", pr.Next)
	}
}

// loseOnePushAnswer delivers the first push it carries and then reports
// a transport error in place of the coordinator's answer, the way a
// connection reset after the request landed looks to a worker.
type loseOnePushAnswer struct {
	rt   http.RoundTripper
	lost atomic.Bool
}

func (l *loseOnePushAnswer) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := l.rt.RoundTrip(r)
	if err == nil && r.URL.Path == "/v1/push" && l.lost.CompareAndSwap(false, true) {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, errors.New("connection reset after the push was delivered")
	}
	return resp, err
}

// TestLostPushAnswerResends: when the answer carrying a worker's next
// cell is lost, the worker's retried push is sent that same cell again,
// so under the default five-minute LeaseTTL the sweep finishes at once,
// with no expiry and one grant per model.
func TestLostPushAnswerResends(t *testing.T) {
	withHarnessState(t)
	const models, recipes = 2, 3
	e := modelGrid("lostanswer", models, recipes)
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t)})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	rt := &loseOnePushAnswer{rt: srv.Client().Transport}
	w := &Worker{URL: srv.URL, Name: "w", Resolve: resolveOnly(e), HTTP: &http.Client{Transport: rt},
		MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}
	// Stranding the cell would hold the sweep for the LeaseTTL; give up
	// long before that.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if !rt.lost.Load() {
		t.Fatal("no push answer was lost")
	}
	if !c.Snapshot().Complete {
		t.Fatal("sweep incomplete: the cell the lost answer sent was stranded")
	}
	for i := 0; i < e.spec.NumCells(); i++ {
		if n := expiries(c, e, i); n != 0 {
			t.Errorf("cell %d counted %d expiries, want 0", i, n)
		}
	}
	if ws := c.Workers().Workers; len(ws) != 1 || ws[0].Leases != models || ws[0].Pushes != models*recipes+1 {
		t.Errorf("worker record %+v, want %d grants and %d pushes (one retried)", ws, models, models*recipes+1)
	}
}

// TestPushWithNextGetsBothBudgets: a push asking for the next cell
// replaces a lease request too, so it may fail transiently as often as
// the two calls together could: with MaxRetries 2, three 503s in a row
// on one push do not stop the worker.
func TestPushWithNextGetsBothBudgets(t *testing.T) {
	withHarnessState(t)
	e, _ := newTestExp("budget")
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t)})
	var failed atomic.Int64
	h := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/push" && failed.Add(1) <= 3 {
			http.Error(w, "store busy", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	w := &Worker{URL: srv.URL, Name: "w", Resolve: resolveOnly(e), MaxRetries: 2,
		BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker gave up: %v", err)
	}
	if !c.Snapshot().Complete {
		t.Fatal("sweep incomplete")
	}
}

// TestCancelledWorkerFinishesSentCell: a worker cancelled while its
// push was on the wire still computes the cell that push's answer sent
// and pushes it exiting, so no sent cell is stranded until its grant
// expires.
func TestCancelledWorkerFinishesSentCell(t *testing.T) {
	withHarnessState(t)
	e := threeRecipes("cancelsent")
	clock, _ := fakeClock() // frozen: no lease can time out
	c := newTestCoord(t, Config{Experiments: []harness.Experiment{e}, Store: openStore(t), Clock: clock})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == "/v1/push" {
			cancel() // after the answer is written, before the worker reads it
		}
	}))
	defer srv.Close()
	w := &Worker{URL: srv.URL, Name: "w", Resolve: resolveOnly(e), MaxRetries: 3,
		BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}
	stats, err := w.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Computed != 2 {
		t.Fatalf("cancelled worker computed %d cells, want 2: the in-flight one and the one its answer sent", stats.Computed)
	}
	if n, p := c.ActiveLeases(), c.Snapshot().Experiments[0]; n != 0 || p.Done != 2 || p.Pending != 4 {
		t.Fatalf("after the exiting push: %d leases, progress %+v; want 0 leases, 2 done / 4 pending", n, p)
	}
}
