// The coordinator: a long-running control plane that owns a grid
// schedule end to end. It derives the cell set from the scheduled
// experiments' specs (deduplicated across experiments sharing a grid,
// seeded done from whatever the store already holds, so restarting a
// coordinator over a half-full store schedules only the missing
// cells), grants them to pull-based workers one model group at a time,
// the group with the most pending cells first, ingests pushed payloads
// under IngestCell's conflict rules, and publishes live coverage over a
// long-poll endpoint. Its unit is the model group end to end: the
// pending queue and the lease table (one grant record per group) are
// keyed by it. The coordinator owns
// its store's grid manifests while it runs: it reads each once at
// startup and checks pushed kernel variants against that copy. All
// state lives behind one mutex; handlers are thin.
//
// Wall-clock use (lease deadlines, heartbeats) is confined to
// this control plane and never reaches RunCell — cell payloads are
// computed by the same pure harness path as local runs and stay
// byte-identical; the clock only decides *when* work is re-queued,
// never *what* a cell contains.

package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fp8quant/internal/faultline"
	"fp8quant/internal/harness"
	"fp8quant/internal/resultstore"
)

// Config configures a Coordinator.
type Config struct {
	// Experiments are the grid experiments to schedule. Scalar (axis-
	// less) experiments contribute no cells and are skipped.
	Experiments []harness.Experiment
	// Filter optionally restricts every grid to matching cells (same
	// semantics as fp8bench -filter). Experiments the filter matches no
	// cell of are scheduled empty; a filter that matches no cell of any
	// experiment fails New.
	Filter harness.Filter
	// Store receives pushed payloads and seeds already-done cells.
	// Required.
	Store *resultstore.Store
	// LeaseTTL is how long a grant may go without an answer sending one
	// of its cells or a push before it expires and its unpushed cells
	// requeue, so it bounds one cell, not a group. Default 5m — generous
	// against the zoo's slowest cells, small against a whole sweep.
	LeaseTTL time.Duration
	// WaitRetry is the retry hint handed to workers when every pending
	// cell is leased out. Default 1s.
	WaitRetry time.Duration
	// Heartbeat is how often registered workers are asked to re-hello
	// (sent back in WorkerAck). A registered worker silent for
	// staleHeartbeats of them is stale. Default 15s.
	Heartbeat time.Duration
	// Clock injects time for tests. Default time.Now.
	Clock func() time.Time
}

// maxExpiries bounds how often one cell may time out before it is
// declared failed: a cell that keeps killing workers should stop the
// sweep from spinning.
const maxExpiries = 3

// staleHeartbeats is how many heartbeat periods a *registered* worker
// may be silent before it is declared stale and its leases expire
// early: a crashed worker then costs one missed heartbeat window
// instead of a full lease TTL. Workers that never sent a hello (no
// heartbeat loop) keep the plain TTL.
const staleHeartbeats = 3

// Coordinator owns the schedule state. Create with New, expose with
// Handler, and drive shutdown with Drain.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	items    map[string]*workItem   // by fingerprint
	exps     []*expSchedule         // in configured order
	pending  map[string][]*workItem // by workItem.group
	grants   map[string]*grantRec   // by id
	seq      int64
	gen      int64
	draining bool
	notify   chan struct{}
	done     chan struct{}
	complete bool
	workers  map[string]*workerRec
}

// workerRec tracks one worker's traffic. Every lease/push touches it;
// only an explicit hello marks it registered (and thus eligible for
// stale detection — a worker with no heartbeat loop must not be
// reaped for never heartbeating).
type workerRec struct {
	name, host, variant string
	pid                 int
	lastSeen            time.Time
	registered          bool
	leases, pushes      int
	// models are the models of every group granted to this worker: the
	// models its process has built and referenced.
	models map[string]bool
	// back bounds when a worker answered StatusWait asks again: the
	// hint plus its jitter (under half the hint) plus a round trip,
	// which 2×WaitRetry covers. Its next lease request clears it.
	back time.Time
	// sent is the cell last sent to the worker, in grant: a push with
	// Next naming another cell while sent is still leased under grant
	// means the answer that sent it was lost, and it is sent again.
	sent  *workItem
	grant *grantRec
}

// New builds the schedule and seeds it from the store. The store's
// grid manifests are written up front (full schedules only, like a
// local run), so -coverage can reason about the sweep while it is
// still running.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("coord: a result store is required (pushed cells have nowhere to go)")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 5 * time.Minute
	}
	if cfg.WaitRetry <= 0 {
		cfg.WaitRetry = time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 15 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	c := &Coordinator{
		cfg:     cfg,
		items:   map[string]*workItem{},
		pending: map[string][]*workItem{},
		grants:  map[string]*grantRec{},
		workers: map[string]*workerRec{},
		notify:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	if err := harness.ValidateFilterAxes(cfg.Experiments, cfg.Filter); err != nil {
		return nil, fmt.Errorf("coord: filter: %w", err)
	}
	var fresh []*workItem
	selected := 0
	manifests := map[string]*resultstore.Manifest{} // by grid id
	for _, e := range cfg.Experiments {
		spec := e.Spec()
		sel := spec.Select(cfg.Filter)
		selected += len(sel)
		if _, seen := manifests[spec.ID]; !seen && spec.NumCells() > 0 {
			// A full schedule is recorded (a failed write only degrades
			// coverage reporting); a filtered sub-schedule is not the
			// grid's schedule, so it only reads the stored manifest.
			m, ok := resultstore.Manifest{}, true
			if len(sel) == spec.NumCells() {
				m, _ = cfg.Store.RecordSchedule(harness.ManifestFor(spec))
			} else {
				m, ok = cfg.Store.LoadManifest(spec.ID, spec.Seed)
			}
			if ok {
				manifests[spec.ID] = &m
			}
		}
		es := &expSchedule{id: e.ID(), grid: spec.ID}
		models := spec.CellModels(sel)
		for j, idx := range sel {
			cell := spec.CellAt(idx)
			fp := spec.CellKey(cell).Fingerprint()
			it, ok := c.items[fp]
			if !ok {
				it = &workItem{
					exp: e.ID(), index: idx, key: spec.KeyString(cell), fp: fp,
					model: models[j], manifest: manifests[spec.ID],
				}
				c.items[fp] = it
				fresh = append(fresh, it)
			}
			es.items = append(es.items, it)
		}
		c.exps = append(c.exps, es)
	}
	if len(cfg.Filter) > 0 && selected == 0 {
		// Scheduling nothing would report a complete sweep of nothing.
		return nil, fmt.Errorf("coord: filter %q matches no cells in any requested experiment", cfg.Filter.String())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seedLocked(fresh)
	c.checkCompleteLocked()
	return c, nil
}

// seedLocked marks every scheduled cell the store already holds as
// done and queues the rest, so a restarted coordinator (or one pointed
// at a warmed store) leases only the missing cells.
func (c *Coordinator) seedLocked(items []*workItem) {
	fps := make([]string, len(items))
	for i, it := range items {
		it.state = stateDone
		fps[i] = it.fp
	}
	for _, i := range c.cfg.Store.Coverage(resultstore.Manifest{Cells: fps}).Missing {
		c.requeueLocked(items[i])
	}
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/lease", c.handleLease)
	mux.HandleFunc("/v1/push", c.handlePush)
	mux.HandleFunc("/v1/workers", c.handleWorkers)
	mux.HandleFunc("/v1/cell/", c.handleCell)
	mux.HandleFunc("/v1/progress", c.handleProgress)
	mux.HandleFunc("/v1/coverage", c.handleCoverage)
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

// inject consults a "coord.server.<endpoint>" failpoint. An ErrDrop
// rule aborts the connection without a response (http.ErrAbortHandler
// panics are swallowed silently by net/http — the client sees EOF);
// any other injected error answers 500, which workers treat as
// transient. Reports whether the handler should return.
func inject(w http.ResponseWriter, point string) bool {
	err := faultline.Hit(point)
	if err == nil {
		return false
	}
	if errors.Is(err, faultline.ErrDrop) {
		panic(http.ErrAbortHandler)
	}
	writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
	return true
}

// bumpLocked advances the generation and wakes long-pollers.
func (c *Coordinator) bumpLocked() {
	c.gen++
	close(c.notify)
	c.notify = make(chan struct{})
}

// changed returns a channel closed at the next state change.
func (c *Coordinator) changed() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.notify
}

// Done is closed once every scheduled cell is done or failed.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// checkCompleteLocked closes the done channel when nothing is left.
func (c *Coordinator) checkCompleteLocked() {
	if c.complete {
		return
	}
	for _, it := range c.items {
		if it.state != stateDone && it.state != stateFailed {
			return
		}
	}
	c.complete = true
	close(c.done)
}

// reapLocked expires overdue grants: a cell sent to the worker and
// not pushed requeues (or fails after maxExpiries timeouts), so a
// crashed worker costs one timeout; cells it never received requeue
// without counting a timeout. A grant held by a registered worker that
// has gone stale (silent for staleHeartbeats heartbeats) expires early
// — the heartbeat's whole point — while unregistered workers keep the
// plain TTL.
func (c *Coordinator) reapLocked(now time.Time) {
	reaped := false
	for id, g := range c.grants {
		if now.Before(g.deadline) && !c.workerStaleLocked(g.worker, now) {
			continue
		}
		delete(c.grants, id)
		reaped = true
		for k, it := range g.cells {
			if it.state != stateLeased {
				continue // pushed, or completed by a late push
			}
			if k < g.sent {
				it.expiries++
			}
			if it.expiries > maxExpiries {
				it.state = stateFailed // FailedCells names the expiries
				continue
			}
			c.requeueLocked(it)
		}
	}
	if reaped {
		c.bumpLocked()
		c.checkCompleteLocked()
	}
}

// Reap expires overdue leases now; fp8coord runs it on a ticker so
// progress advances even when no worker traffic arrives.
func (c *Coordinator) Reap() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(c.cfg.Clock())
}

// workerStaleLocked reports whether a registered worker has been
// silent for staleHeartbeats heartbeats. Workers known only from
// lease/push traffic never go stale — they did not promise heartbeats.
func (c *Coordinator) workerStaleLocked(name string, now time.Time) bool {
	rec, ok := c.workers[name]
	return ok && rec.registered && now.Sub(rec.lastSeen) > staleHeartbeats*c.cfg.Heartbeat
}

// touchWorkerLocked records traffic from a worker, creating an
// unregistered record on first contact.
func (c *Coordinator) touchWorkerLocked(name string) *workerRec {
	rec, ok := c.workers[name]
	if !ok {
		rec = &workerRec{name: name, models: map[string]bool{}}
		c.workers[name] = rec
	}
	rec.lastSeen = c.cfg.Clock()
	return rec
}

// hello registers (or heartbeats) a worker.
func (c *Coordinator) hello(h WorkerHello) WorkerAck {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.touchWorkerLocked(h.Worker)
	rec.registered = true
	if h.Host != "" {
		rec.host = h.Host
	}
	if h.Pid != 0 {
		rec.pid = h.Pid
	}
	if h.KernelVariant != "" {
		rec.variant = h.KernelVariant
	}
	return WorkerAck{HeartbeatMs: c.cfg.Heartbeat.Milliseconds()}
}

// Workers returns the fleet view, sorted by worker name.
func (c *Coordinator) Workers() WorkersSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	var snap WorkersSnapshot
	for _, name := range names {
		rec := c.workers[name]
		snap.Workers = append(snap.Workers, WorkerInfo{
			Worker: rec.name, Host: rec.host, Pid: rec.pid,
			KernelVariant: rec.variant, Registered: rec.registered,
			IdleMs: now.Sub(rec.lastSeen).Milliseconds(),
			Stale:  c.workerStaleLocked(name, now),
			Leases: rec.leases, Pushes: rec.pushes,
			Models: len(rec.models),
		})
	}
	return snap
}

// Drain puts the coordinator into shutdown: new lease requests are
// refused (workers exit after pushing in-flight work) and reserved,
// unsent cells requeue, while pushes, progress and coverage keep
// serving.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.draining {
		c.draining = true
		for _, g := range c.grants {
			c.releaseLocked(g, true)
		}
		c.bumpLocked()
	}
}

// ActiveLeases reports how many granted cells are not yet pushed
// (drain waits on it).
func (c *Coordinator) ActiveLeases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(c.cfg.Clock())
	n := 0
	for _, g := range c.grants {
		n += g.outstanding()
	}
	return n
}

// Linger keeps the caller for d, and on while a worker answered
// StatusWait may still come back for its next answer. fp8coord -once
// lingers here after completion, so no waiting worker finds the
// coordinator gone and spends its retry budget against a closed port.
func (c *Coordinator) Linger(d time.Duration) {
	time.Sleep(d)
	for waiting := true; waiting; time.Sleep(10 * time.Millisecond) {
		c.mu.Lock()
		waiting = false
		for _, rec := range c.workers {
			waiting = waiting || rec.back.After(c.cfg.Clock())
		}
		c.mu.Unlock()
	}
}

// FailedCells returns "exp cell: reason" lines for permanently failed
// cells, in schedule order.
func (c *Coordinator) FailedCells() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, es := range c.exps {
		for _, it := range es.items {
			if it.state == stateFailed {
				msg := it.failMsg
				if msg == "" {
					msg = fmt.Sprintf("lease expired %d times (workers keep dying on this cell)", it.expiries)
				}
				out = append(out, fmt.Sprintf("%s %s: %s", es.id, it.key, msg))
			}
		}
	}
	return out
}

// Snapshot returns the current progress view (reaping first, so an
// expired lease is visible to pollers without worker traffic).
func (c *Coordinator) Snapshot() ProgressSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(c.cfg.Clock())
	snap := ProgressSnapshot{Gen: c.gen, Draining: c.draining, Complete: c.complete}
	for _, es := range c.exps {
		snap.Experiments = append(snap.Experiments, es.progress())
	}
	return snap
}

// AwaitChange blocks until the state generation exceeds gen, the
// timeout elapses or ctx ends, returning the snapshot either way — the
// long-poll endpoint's wait, and fp8coord's progress logger's.
func (c *Coordinator) AwaitChange(ctx context.Context, gen int64, timeout time.Duration) ProgressSnapshot {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		ch := c.changed()
		snap := c.Snapshot()
		if snap.Gen > gen {
			return snap
		}
		select {
		case <-ch:
		case <-deadline.C:
			return c.Snapshot()
		case <-ctx.Done():
			return snap
		}
	}
}

// lease answers a lease request from worker (leaseLocked).
func (c *Coordinator) lease(worker string) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaseLocked(worker, "")
}

// leaseLocked sends worker the next unsent cell of its grant (skipping
// cells a late push has settled), or grants it the next pending group
// and sends that group's first cell. pushed names the cell of the push
// with Next this answers ("" for a lease request): if it is not the
// cell last sent to worker and that cell is still leased under its
// live grant, the answer that sent it was lost, and it is sent again
// instead of the grant advancing (while draining too: the cell is in
// flight, and drain waits for it).
func (c *Coordinator) leaseLocked(worker, pushed string) LeaseResponse {
	now := c.cfg.Clock()
	rec := c.touchWorkerLocked(worker)
	rec.back = time.Time{}
	c.reapLocked(now)
	if c.complete {
		return LeaseResponse{Status: StatusDone}
	}
	if it, g := rec.sent, rec.grant; pushed != "" && it != nil && it.fp != pushed &&
		it.state == stateLeased && c.grants[g.id] == g {
		return c.sendLocked(rec, g, it, now)
	}
	if c.draining {
		return LeaseResponse{Status: StatusDraining}
	}
	var g *grantRec
	for _, h := range c.grants {
		if h.worker == worker && h.next() {
			g = h
		}
	}
	if g == nil {
		cells := c.takeGroupLocked()
		if cells == nil {
			rec.back = now.Add(2 * c.cfg.WaitRetry)
			return LeaseResponse{Status: StatusWait, RetryMs: c.cfg.WaitRetry.Milliseconds()}
		}
		c.seq++
		g = &grantRec{id: "l-" + strconv.FormatInt(c.seq, 10), worker: worker, cells: cells}
		for _, it := range g.cells {
			it.state = stateLeased
		}
		c.grants[g.id] = g
		rec.leases++
		if m := g.cells[0].model; m != "" {
			rec.models[m] = true
		}
		c.bumpLocked()
	}
	it := g.cells[g.sent]
	g.sent++
	return c.sendLocked(rec, g, it, now)
}

// sendLocked answers worker's rec with cell it of its grant g: the
// answer renews g's deadline, carries g's id as Lease.ID and is
// recorded as the cell last sent to the worker.
func (c *Coordinator) sendLocked(rec *workerRec, g *grantRec, it *workItem, now time.Time) LeaseResponse {
	g.deadline = now.Add(c.cfg.LeaseTTL)
	rec.sent, rec.grant = it, g
	return LeaseResponse{Status: StatusLease, Lease: &Lease{
		ID: g.id, Exp: it.exp, Index: it.index, Key: it.key,
		Fingerprint: it.fp, TTLMs: c.cfg.LeaseTTL.Milliseconds(),
	}}
}

// push ingests one completed (or failed) cell. Pushes are keyed by
// fingerprint, not grant: a push arriving after its grant expired is
// still good work and is accepted (idempotently, if another worker got
// there first) — the grant only bounds how long the coordinator waits
// before rescheduling. A non-"" msg describes the rejection. A 200
// answer to a push with Next (and not Exiting) carries the worker's
// next lease answer, decided under the same lock once the push has
// settled its grant.
func (c *Coordinator) push(req PushRequest) (PushResponse, int, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, code, msg := c.pushLocked(req)
	if code == http.StatusOK && req.Next && !req.Exiting {
		next := c.leaseLocked(req.Worker, req.Fingerprint)
		resp.Next = &next
	}
	return resp, code, msg
}

// pushLocked ingests a push (push).
func (c *Coordinator) pushLocked(req PushRequest) (PushResponse, int, string) {
	c.touchWorkerLocked(req.Worker).pushes++
	it, ok := c.items[req.Fingerprint]
	if !ok {
		return PushResponse{}, http.StatusNotFound, fmt.Sprintf("push rejected for cell %s", req.Fingerprint)
	}
	defer func() {
		// The push renews its grant (LeaseTTL bounds one cell, not the
		// group), and an exiting worker's unsent cells requeue. A cell
		// a transient store failure left leased stays outstanding: if
		// the worker dies instead of retrying, the grant expires and
		// requeues it rather than stranding it.
		if g := c.grants[req.LeaseID]; g != nil {
			c.releaseLocked(g, req.Exiting)
		}
		c.bumpLocked()
		c.checkCompleteLocked()
	}()
	if req.Err != "" {
		if it.state != stateDone {
			it.state = stateFailed
			it.failMsg = req.Err
		}
		return PushResponse{Status: PushFailedRecorded}, http.StatusOK, ""
	}
	// Variant provenance gates the ingest: a freshly computed cell from
	// a different GEMM tier than the grid's recorded one is refused
	// before its bytes land, so a mixed-hardware fleet fails at push
	// time instead of poisoning the store. The manifest is written only
	// when its variant list grows.
	if m := it.manifest; m != nil && req.Computed && req.KernelVariant != "" {
		grew, err := m.AddVariants([]string{req.KernelVariant})
		if err != nil {
			return PushResponse{}, http.StatusConflict, err.Error()
		}
		if grew {
			// A failed write only degrades provenance reporting.
			_ = c.cfg.Store.SaveManifest(*m)
		}
	}
	status, err := c.cfg.Store.IngestCell(req.Fingerprint, req.Payload)
	if resultstore.IsCellConflict(err) || resultstore.IsBadPayload(err) {
		// Permanent rejections — a differing-valid-payload conflict
		// (fingerprint collision or nondeterministic cell) or an invalid
		// envelope — surface as 409 so the worker fails loudly instead of
		// retrying bytes that can never land.
		return PushResponse{}, http.StatusConflict, err.Error()
	}
	if err != nil {
		// A store I/O failure (full disk, torn write, injected fault) is
		// the coordinator's problem, not the payload's: answer 500 so the
		// worker retries the identical push once the store recovers.
		return PushResponse{}, http.StatusInternalServerError,
			fmt.Sprintf("store ingest failed for cell %s: %v", req.Fingerprint, err)
	}
	it.state = stateDone
	if status == resultstore.IngestIdentical {
		return PushResponse{Status: PushIdentical}, http.StatusOK, ""
	}
	return PushResponse{Status: PushStored}, http.StatusOK, ""
}

// ---- HTTP plumbing ----

// writeJSON answers code with v's JSON encoding and a newline, the
// bytes json.Marshal makes plus "\n". The encoder marshals into a pooled
// buffer and writes it once: json.Marshal would copy the body out of
// that buffer, and appending the newline could copy it again. The
// error is dropped because the status is already sent: a client that
// hung up gets no other answer.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeBody decodes r's JSON body into v: it reads at most
// maxBodyBytes of it once and unmarshals that, so a body must hold one
// JSON value and nothing after it but whitespace. On failure it answers
// 413 (body over the cap) or 400 (malformed, the message prefixed by
// what) and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}, what string) bool {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(b, v)
	}
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{fmt.Sprintf("%s: body exceeds %d bytes", what, maxBodyBytes)})
		return false
	}
	writeJSON(w, http.StatusBadRequest, errorResponse{what + ": " + err.Error()})
	return false
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	if inject(w, "coord.server.lease") {
		return
	}
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST only"})
		return
	}
	var req LeaseRequest
	if !decodeBody(w, r, &req, "bad lease request") {
		return
	}
	writeJSON(w, http.StatusOK, c.lease(req.Worker))
}

func (c *Coordinator) handlePush(w http.ResponseWriter, r *http.Request) {
	if inject(w, "coord.server.push") {
		return
	}
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST only"})
		return
	}
	var req PushRequest
	if !decodeBody(w, r, &req, "bad push request") {
		return
	}
	resp, code, msg := c.push(req)
	if code != http.StatusOK {
		writeJSON(w, code, errorResponse{msg})
		return
	}
	// An answer carrying a lease passes the lease failpoint, after the
	// push landed: a dropped one is a lost answer whose cell was sent.
	if resp.Next != nil && inject(w, "coord.server.lease") {
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleWorkers registers heartbeating workers (POST) and serves the
// fleet view (GET).
func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if inject(w, "coord.server.workers") {
		return
	}
	switch r.Method {
	case http.MethodPost:
		var h WorkerHello
		if !decodeBody(w, r, &h, "bad hello") {
			return
		}
		if h.Worker == "" {
			writeJSON(w, http.StatusBadRequest, errorResponse{"hello without a worker name"})
			return
		}
		writeJSON(w, http.StatusOK, c.hello(h))
	case http.MethodGet:
		writeJSON(w, http.StatusOK, c.Workers())
	default:
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET or POST only"})
	}
}

// cellFpPattern is the shape of a cell fingerprint in /v1/cell/<fp>.
var cellFpPattern = regexp.MustCompile(`^[0-9a-f]{32}$`)

// handleCell serves raw stored cell envelopes by fingerprint, so a
// worker with a cold local store can warm its memo from the
// coordinator instead of needing a shared filesystem. 404 means the
// coordinator's store does not hold a valid entry for that cell (yet).
func (c *Coordinator) handleCell(w http.ResponseWriter, r *http.Request) {
	if inject(w, "coord.server.cell") {
		return
	}
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET only"})
		return
	}
	fp := strings.TrimPrefix(r.URL.Path, "/v1/cell/")
	if !cellFpPattern.MatchString(fp) {
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad cell fingerprint"})
		return
	}
	b, ok := c.cfg.Store.CellBytesByFingerprint(fp)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"cell not in store"})
		return
	}
	c.mu.Lock()
	var v []string
	if it, ok := c.items[fp]; ok && it.manifest != nil {
		v = it.manifest.KernelVariants
	}
	c.mu.Unlock()
	if len(v) > 0 {
		w.Header().Set(VariantsHeader, strings.Join(v, ","))
	}
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(b)
}

// handleProgress long-polls: with ?gen=N it blocks until the state
// generation exceeds N (or timeout_ms elapses), so a watcher gets an
// update per state change instead of hammering the endpoint.
func (c *Coordinator) handleProgress(w http.ResponseWriter, r *http.Request) {
	if inject(w, "coord.server.progress") {
		return
	}
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET only"})
		return
	}
	gen := int64(-1)
	if v := r.URL.Query().Get("gen"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{"bad gen: " + err.Error()})
			return
		}
		gen = n
	}
	timeout := 30 * time.Second
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{"bad timeout_ms"})
			return
		}
		timeout = time.Duration(n) * time.Millisecond
		if timeout > 2*time.Minute {
			timeout = 2 * time.Minute
		}
	}
	writeJSON(w, http.StatusOK, c.AwaitChange(r.Context(), gen, timeout))
}

// handleCoverage renders the live fp8bench -coverage style table.
func (c *Coordinator) handleCoverage(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET only"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, CoverageText(c.Snapshot()))
}

// CoverageText formats a snapshot as the familiar coverage table.
func CoverageText(snap ProgressSnapshot) string {
	var b []byte
	b = append(b, fmt.Sprintf("%-14s %-22s %7s %7s %8s %8s %8s %9s\n",
		"experiment", "grid", "cells", "done", "failed", "leased", "pending", "complete")...)
	for _, p := range snap.Experiments {
		b = append(b, fmt.Sprintf("%-14s %-22s %7d %7d %8d %8d %8d %8.1f%%\n",
			p.Exp, p.Grid, p.Total, p.Done, p.Failed, p.Leased, p.Pending, p.Percent)...)
	}
	switch {
	case snap.Complete:
		b = append(b, "schedule complete\n"...)
	case snap.Draining:
		b = append(b, "draining: no new leases\n"...)
	}
	return string(b)
}
