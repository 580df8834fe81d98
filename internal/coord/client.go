// Worker side of the sweep protocol. A worker is a plain loop: lease a
// cell (the coordinator sends the cells of one model group in a row),
// compute it through the exact harness path a local run uses (memo →
// store → RunCell, panic-isolated, on the worker's one model session),
// push the store payload back, repeat until the coordinator says done.
// Each push asks for the next cell and its answer carries it, so a
// worker calls POST /v1/lease only to start and after a wait: one
// round trip per cell. All HTTP calls go through a bounded retry with
// exponential backoff and jitter — connection refused and 5xx are
// transient (a restarting coordinator), 4xx are protocol errors and
// fail hard — and a cancelled context finishes gracefully: the
// in-flight cell is still computed and pushed before the worker exits
// (as is a cell the last push answer already sent), so SIGINT never
// wastes completed work, and the push marks the worker as exiting, so
// the rest of its group goes back to the queue at once.

package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"fp8quant/internal/faultline"
	"fp8quant/internal/harness"
	"fp8quant/internal/resultstore"
	"fp8quant/internal/tensor/kernels"
)

// workerSeq disambiguates default worker names within one process: the
// PR-9 postmortem found that two library-constructed workers with
// equal (or empty) names share a backoff-RNG seed and retry in
// lockstep, so the default name must be unique per Worker, not just
// per process.
var workerSeq atomic.Int64

// Worker pulls cell leases from a coordinator and pushes results back.
type Worker struct {
	// URL is the coordinator base URL (e.g. "http://127.0.0.1:8123").
	URL string
	// Name identifies the worker in coordinator bookkeeping and logs.
	// It also seeds the backoff-jitter RNG, so two workers sharing a
	// Name retry in lockstep (and confuse lease bookkeeping). Empty
	// defaults to "<host>-<pid>-<n>" with a per-process monotonic
	// counter, so library-constructed workers are collision-free with
	// no cmd wiring — give explicit names the same uniqueness.
	Name string
	// HTTP is the client used for all calls. Default: a client that
	// waits at most 2 minutes for an answer (long-polls are not used by
	// workers).
	HTTP *http.Client
	// Resolve maps an experiment id to its experiment. Default
	// harness.Get; tests inject synthetic experiments.
	Resolve func(id string) (harness.Experiment, bool)
	// MaxRetries bounds consecutive transient failures per call before
	// the worker gives up (the retry budget). Default 6. A push asking
	// for the next cell stands for two calls, the push and the lease
	// request its answer replaces, and gets both budgets: the faults
	// either call had to survive now fall on the one.
	MaxRetries int
	// BaseDelay/MaxDelay shape the exponential backoff. Defaults
	// 200ms / 10s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Log receives progress lines; nil discards them.
	Log io.Writer

	rng *rand.Rand
	// endpoints are the coordinator's endpoints under URL, parsed once.
	endpoints map[string]endpoint
}

// endpoint is one coordinator endpoint: its URL (or why URL does not
// parse) and its client-transport failpoint.
type endpoint struct {
	url   *url.URL
	err   error
	point string
}

// WorkerStats summarizes one worker run.
type WorkerStats struct {
	// Computed counts cells this worker evaluated fresh.
	Computed int
	// Cached counts cells served from this worker's local cache layers.
	Cached int
	// Failed counts cells whose evaluation errored (pushed as Err).
	Failed int
}

func (w *Worker) defaults() {
	if w.Name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		w.Name = fmt.Sprintf("%s-%d-%d", host, os.Getpid(), workerSeq.Add(1))
	}
	if w.HTTP == nil {
		// The header timeout bounds a call as a client Timeout would (each
		// answer is one small JSON body), without a deadline context,
		// timer and goroutine per request. Answers are a few hundred
		// bytes of JSON, so the transport does not negotiate gzip.
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.ResponseHeaderTimeout = 2 * time.Minute
		t.DisableCompression = true
		w.HTTP = &http.Client{Transport: t}
	}
	if w.endpoints == nil {
		base := strings.TrimRight(w.URL, "/")
		w.endpoints = make(map[string]endpoint, len(clientPoints))
		for path, point := range clientPoints {
			u, err := url.Parse(base + path)
			w.endpoints[path] = endpoint{url: u, err: err, point: point}
		}
	}
	if w.Resolve == nil {
		w.Resolve = harness.Get
	}
	if w.MaxRetries <= 0 {
		w.MaxRetries = 6
	}
	if w.BaseDelay <= 0 {
		w.BaseDelay = 200 * time.Millisecond
	}
	if w.MaxDelay <= 0 {
		w.MaxDelay = 10 * time.Second
	}
	if w.rng == nil {
		// Jitter decorrelates workers' retry storms; seeding from the
		// worker name keeps the worker itself reproducible. Scheduling
		// jitter never reaches cell computation, so determinism of
		// results is untouched.
		var seed int64 = 1
		for _, r := range w.Name {
			seed = seed*131 + int64(r)
		}
		w.rng = rand.New(rand.NewSource(seed))
	}
}

func (w *Worker) logf(format string, args ...interface{}) {
	if w.Log != nil {
		fmt.Fprintf(w.Log, "worker %s: "+format+"\n", append([]interface{}{w.Name}, args...)...)
	}
}

// Run pulls and computes cells until the coordinator reports done (or
// draining), the context is cancelled, or the retry budget is
// exhausted. A context cancellation arriving mid-cell is graceful: the
// cell is finished and pushed first, and so is a cell the last push
// answer sent. Every cell runs on one model session for the run, so a
// granted group's cells share one network.
func (w *Worker) Run(ctx context.Context) (WorkerStats, error) {
	w.defaults()
	stopBeat := w.startHeartbeat(ctx)
	defer stopBeat()
	var stats WorkerStats
	var session harness.Session
	var lr LeaseResponse // the next answer, when the last push carried one
	for {
		if ctx.Err() != nil && lr.Status != StatusLease {
			w.logf("context cancelled, exiting")
			return stats, nil
		}
		if lr.Status == "" {
			if err := w.call(ctx, "/v1/lease", LeaseRequest{Worker: w.Name}, &lr, w.MaxRetries); err != nil {
				return stats, fmt.Errorf("lease: %w", err)
			}
		}
		switch lr.Status {
		case StatusDone:
			w.logf("schedule complete, exiting")
			return stats, nil
		case StatusDraining:
			w.logf("coordinator draining, exiting")
			return stats, nil
		case StatusWait:
			delay := time.Duration(lr.RetryMs) * time.Millisecond
			if delay <= 0 {
				delay = time.Second
			}
			if !w.sleep(ctx, w.jitter(delay)) {
				return stats, nil
			}
			lr = LeaseResponse{}
			continue
		case StatusLease:
			if lr.Lease == nil {
				return stats, fmt.Errorf("lease: coordinator sent status %q without a lease", lr.Status)
			}
		default:
			return stats, fmt.Errorf("lease: unknown status %q", lr.Status)
		}
		push := w.computeLease(*lr.Lease, &stats, &session)
		push.Exiting = ctx.Err() != nil
		push.Next = !push.Exiting
		// Push over a context detached from cancellation: if SIGINT
		// landed while computing, the finished cell must still reach the
		// coordinator — dropping it would waste the work and cost a
		// lease timeout.
		retries := w.MaxRetries
		if push.Next {
			retries *= 2
		}
		var pr PushResponse
		if err := w.call(context.Background(), "/v1/push", push, &pr, retries); err != nil {
			return stats, fmt.Errorf("push %s: %w", push.Fingerprint, err)
		}
		if w.Log != nil { // logf's arguments would allocate even unlogged
			w.logf("cell %s: %s", lr.Lease.Key, pr.Status)
		}
		lr = LeaseResponse{}
		if pr.Next != nil {
			lr = *pr.Next
		}
	}
}

// startHeartbeat registers with the coordinator and re-hellos on the
// acked interval until the returned stop function is called. Hellos
// are best-effort single requests, never retried: registering opts the
// worker into stale detection (faster lease recovery when it dies),
// and a coordinator predating /v1/workers just answers 404 — the
// worker then runs exactly as before, with plain lease TTLs.
func (w *Worker) startHeartbeat(ctx context.Context) func() {
	interval := 15 * time.Second
	if ack, err := w.hello(ctx); err == nil && ack.HeartbeatMs > 0 {
		interval = time.Duration(ack.HeartbeatMs) * time.Millisecond
	}
	hbCtx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				_, _ = w.hello(hbCtx)
			}
		}
	}()
	return func() { cancel(); <-done }
}

// hello posts one WorkerHello (no retries — heartbeats are cheap and
// periodic, a missed one just arrives next tick).
func (w *Worker) hello(ctx context.Context) (WorkerAck, error) {
	host, _ := os.Hostname()
	var ack WorkerAck
	err := w.call(ctx, "/v1/workers", WorkerHello{
		Worker: w.Name, Host: host, Pid: os.Getpid(),
		KernelVariant: string(kernels.Active()),
	}, &ack, 0)
	return ack, err
}

// computeLease evaluates one leased cell on session s and builds its
// push.
func (w *Worker) computeLease(l Lease, stats *WorkerStats, s *harness.Session) PushRequest {
	push := PushRequest{Worker: w.Name, LeaseID: l.ID, Fingerprint: l.Fingerprint}
	e, ok := w.Resolve(l.Exp)
	if !ok {
		stats.Failed++
		push.Err = fmt.Sprintf("worker %s does not know experiment %q (version skew?)", w.Name, l.Exp)
		return push
	}
	spec := e.Spec()
	if l.Index < 0 || l.Index >= spec.NumCells() {
		stats.Failed++
		push.Err = fmt.Sprintf("cell index %d out of range for %s's %d cells (schedule skew?)", l.Index, l.Exp, spec.NumCells())
		return push
	}
	// Recompute the content address from this worker's own spec: a
	// worker built from a different schedule must fail loudly rather
	// than push bytes under the coordinator's address. The cache layers
	// then reuse the address.
	a := spec.CellKey(spec.CellAt(l.Index)).Addr()
	if a.FP != l.Fingerprint {
		stats.Failed++
		push.Err = fmt.Sprintf("fingerprint mismatch on %s cell %d: coordinator says %s, worker derives %s (schedule skew)", l.Exp, l.Index, l.Fingerprint, a.FP)
		return push
	}
	res, computed := harness.ComputeCell(e, l.Index, a, s)
	if res.Err != "" {
		// Cell failures are deterministic (runCellSafe converts panics);
		// report them so the coordinator stops rescheduling the cell.
		stats.Failed++
		push.Err = res.Err
		return push
	}
	payload, err := resultstore.EncodeCell(a.Key, res)
	if err != nil {
		stats.Failed++
		push.Err = fmt.Sprintf("encoding cell payload: %v", err)
		return push
	}
	push.Payload = payload
	push.Computed = computed
	if computed {
		// Provenance travels with fresh work only, matching the local
		// executor: a cache hit says nothing about which tier produced
		// the stored bytes.
		push.KernelVariant = string(kernels.Active())
		stats.Computed++
	} else {
		stats.Cached++
	}
	return push
}

// clientPoints names each endpoint's client-transport failpoint.
var clientPoints = map[string]string{"/v1/lease": "coord.client.lease", "/v1/push": "coord.client.push", "/v1/workers": "coord.client.workers"}

// call POSTs req as JSON and decodes the response into out, retrying
// transient failures (network errors, 5xx) with exponential backoff and
// jitter up to retries times. Non-5xx protocol errors fail immediately
// with the server's error message.
func (w *Worker) call(ctx context.Context, path string, req, out interface{}, retries int) error {
	ep := w.endpoints[path]
	if ep.err != nil {
		return ep.err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			if !w.sleep(ctx, w.backoff(attempt)) {
				return fmt.Errorf("cancelled while retrying %s: %w", path, lastErr)
			}
			w.logf("retrying %s (attempt %d/%d): %v", path, attempt, retries, lastErr)
		}
		// Client-transport failpoint ("coord.client.lease"/"…push"):
		// an injected error consumes an attempt like any network fault;
		// crash rules terminate the process here — mid-protocol, the
		// worst possible moment, which is the point.
		if err := faultline.Hit(ep.point); err != nil {
			lastErr = err
			continue
		}
		resp, err := w.HTTP.Do(postRequest(ctx, ep.url, body))
		if err != nil {
			lastErr = err // connection refused, reset, timeout: transient
			continue
		}
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			lastErr = fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(respBody)))
			continue
		}
		if resp.StatusCode != http.StatusOK {
			// 4xx is a protocol disagreement (bad push, conflict, unknown
			// cell) — retrying the identical request cannot help.
			var er errorResponse
			if json.Unmarshal(respBody, &er) == nil && er.Error != "" {
				return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, er.Error)
			}
			return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(respBody)))
		}
		return json.Unmarshal(respBody, out)
	}
	return fmt.Errorf("%s: retry budget exhausted after %d attempts: %w", path, retries+1, lastErr)
}

// postRequest builds the JSON POST of body to the parsed endpoint u, as
// http.NewRequestWithContext would without parsing the URL again.
func postRequest(ctx context.Context, u *url.URL, body []byte) *http.Request {
	req := (&http.Request{
		Method:        http.MethodPost,
		URL:           u,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": jsonContentType},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Host:          u.Host,
	}).WithContext(ctx)
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	return req
}

// backoff returns the delay before the given retry attempt (1-based):
// exponential from BaseDelay, capped at MaxDelay, with jitter.
func (w *Worker) backoff(attempt int) time.Duration {
	d := w.BaseDelay << uint(attempt-1)
	if d > w.MaxDelay || d <= 0 {
		d = w.MaxDelay
	}
	return w.jitter(d)
}

// jitter spreads a delay uniformly over [d, 3d/2), treating d as a
// floor: a StatusWait RetryMs is the coordinator's own estimate of when
// new work can exist, so sleeping less than it (the old [d/2, d)
// spread) just hammered the lease endpoint early for nothing. Jitter
// added on top still decorrelates workers retrying in lockstep.
func (w *Worker) jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d + time.Duration(w.rng.Int63n(int64(d/2)))
}

// sleep waits for d or until the context cancels; false on cancel.
func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
