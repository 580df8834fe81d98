// The coordinator: a long-running control plane that owns a grid
// schedule end to end. It derives the cell set from the scheduled
// experiments' specs (deduplicated across experiments sharing a grid,
// seeded done from whatever the store already holds, so restarting a
// coordinator over a half-full store schedules only the missing
// cells), leases them to pull-based workers one model group at a time,
// the most expensive group first via the learned cost model, ingests
// pushed payloads under IngestCell's conflict rules, and publishes live
// coverage over a long-poll endpoint. All state lives behind one mutex;
// handlers are thin.
//
// Wall-clock use (lease deadlines, cost observations) is confined to
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
	"slices"
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
	// cell of are scheduled empty.
	Filter harness.Filter
	// Store receives pushed payloads and seeds already-done cells.
	// Required.
	Store *resultstore.Store
	// LeaseTTL is how long a worker may hold a cell before the lease
	// expires and the cell requeues (renewed per lease and push of its
	// group). Default 5m — generous against the zoo's slowest cells,
	// small against a whole sweep.
	LeaseTTL time.Duration
	// CostSidecar names the cost-model sidecar file in the store.
	// Default CostSidecarName.
	CostSidecar string
	// MaxExpiries bounds how often one cell may time out before it is
	// declared failed (a cell that keeps killing workers should stop
	// the sweep from spinning). Default 3.
	MaxExpiries int
	// WaitRetry is the retry hint handed to workers when every pending
	// cell is leased out. Default 1s.
	WaitRetry time.Duration
	// Heartbeat is how often registered workers are asked to re-hello
	// (sent back in WorkerAck). Default 15s.
	Heartbeat time.Duration
	// StaleAfter is how long a *registered* worker may be silent before
	// it is declared stale and its leases expire early — a crashed
	// worker then costs one missed heartbeat window instead of a full
	// lease TTL. Workers that never sent a hello (no heartbeat loop)
	// keep the plain TTL. Default 3×Heartbeat.
	StaleAfter time.Duration
	// Clock injects time for tests. Default time.Now.
	Clock func() time.Time
}

// Coordinator owns the schedule state. Create with New, expose with
// Handler, and drive shutdown with Drain + PersistCost.
type Coordinator struct {
	cfg  Config
	cost *CostModel

	mu       sync.Mutex
	items    map[string]*workItem        // by fingerprint
	specs    map[string]harness.GridSpec // by grid id, for manifest provenance
	exps     []*expSchedule              // in configured order
	pending  []*workItem
	dirty    bool // pending needs re-sorting against fresh estimates
	leases   map[string]*leaseRec
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
	// models are the models of every group leased to this worker: the
	// models its process has built and referenced.
	models map[string]bool
	// group is its latest grant, whose unsent cells it is sent next.
	group []*leaseRec
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
	if cfg.CostSidecar == "" {
		cfg.CostSidecar = CostSidecarName
	}
	if cfg.MaxExpiries <= 0 {
		cfg.MaxExpiries = 3
	}
	if cfg.WaitRetry <= 0 {
		cfg.WaitRetry = time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 15 * time.Second
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 3 * cfg.Heartbeat
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	c := &Coordinator{
		cfg:     cfg,
		cost:    LoadCostModel(cfg.Store, cfg.CostSidecar),
		items:   map[string]*workItem{},
		specs:   map[string]harness.GridSpec{},
		leases:  map[string]*leaseRec{},
		workers: map[string]*workerRec{},
		notify:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, e := range cfg.Experiments {
		spec := e.Spec()
		if err := spec.ValidateFilter(cfg.Filter); err != nil && spec.NumCells() > 0 {
			return nil, fmt.Errorf("coord: %s: %w", e.ID(), err)
		}
		sel := spec.Select(cfg.Filter)
		es := &expSchedule{id: e.ID(), grid: spec.ID}
		models := spec.CellModels(sel)
		for j, idx := range sel {
			cell := spec.CellAt(idx)
			k := spec.CellKey(cell)
			fp := k.Fingerprint()
			it, ok := c.items[fp]
			if !ok {
				it = &workItem{
					exp: e.ID(), grid: spec.ID, index: idx,
					key: spec.KeyString(cell), fp: fp, axes: k.Cell,
					model: models[j],
				}
				c.items[fp] = it
				c.pending = append(c.pending, it)
			}
			es.items = append(es.items, it)
		}
		c.exps = append(c.exps, es)
		// Record the full schedule for coverage tooling; a filtered
		// sub-schedule is not the grid's schedule and must not
		// overwrite it (same rule as the local executor).
		if spec.NumCells() > 0 && len(sel) == spec.NumCells() {
			saveManifest(cfg.Store, spec)
		}
		if spec.NumCells() > 0 {
			c.specs[spec.ID] = spec
		}
	}
	c.seedFromStore()
	c.mu.Lock()
	c.checkCompleteLocked()
	c.mu.Unlock()
	return c, nil
}

// saveManifest records a grid's full schedule, preserving an existing
// manifest whose schedule already matches (it may carry kernel-variant
// provenance from earlier runs).
func saveManifest(s *resultstore.Store, spec harness.GridSpec) {
	m := harness.ManifestFor(spec)
	if old, ok := s.LoadManifest(spec.ID, spec.Seed); ok && old.SameSchedule(m) {
		return
	}
	// A failed manifest write only degrades coverage reporting; pushed
	// cells are still content-addressed and safe.
	_ = s.SaveManifest(m)
}

// seedFromStore marks every scheduled cell the store already holds as
// done, so a restarted coordinator (or one pointed at a warmed store)
// leases only the missing cells.
func (c *Coordinator) seedFromStore() {
	c.mu.Lock()
	defer c.mu.Unlock()
	var fps []string
	for _, it := range c.pending {
		fps = append(fps, it.fp)
	}
	cov := c.cfg.Store.Coverage(resultstore.Manifest{Cells: fps})
	missing := map[int]bool{}
	for _, i := range cov.Missing {
		missing[i] = true
	}
	var still []*workItem
	for i, it := range c.pending {
		if missing[i] {
			still = append(still, it)
		} else {
			it.state = stateDone
		}
	}
	c.pending = still
	c.dirty = true
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

// reapLocked expires overdue leases, a group's together: a cell sent
// to the worker requeues (or fails after MaxExpiries timeouts), so a
// crashed worker costs one timeout; cells it never received requeue
// without counting a timeout. Leases held by a registered worker that
// has gone stale (silent past StaleAfter) expire early — the
// heartbeat's whole point — while unregistered workers keep the plain
// TTL. Leases are processed in sorted id order so requeue order (and
// any resulting failure messages) is deterministic.
func (c *Coordinator) reapLocked(now time.Time) {
	var due []*leaseRec
	for _, l := range c.leases {
		if !now.Before(l.deadline) || c.workerStaleLocked(l.worker, now) {
			due = append(due, l)
		}
	}
	slices.SortFunc(due, func(a, b *leaseRec) int { return strings.Compare(a.id, b.id) })
	for _, l := range due {
		for _, m := range l.group { // members already reaped are skipped
			if c.leases[m.id] != m {
				continue
			}
			delete(c.leases, m.id)
			it := m.item
			if it.state != stateLeased {
				continue // a late push already completed the cell
			}
			if m.sent {
				it.expiries++
			}
			if it.expiries > c.cfg.MaxExpiries {
				it.state = stateFailed
				it.failMsg = fmt.Sprintf("lease expired %d times (workers keep dying on this cell)", it.expiries)
				continue
			}
			c.requeueLocked(it)
		}
	}
	if len(due) > 0 {
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
// silent past StaleAfter. Workers known only from lease/push traffic
// never go stale — they did not promise heartbeats.
func (c *Coordinator) workerStaleLocked(name string, now time.Time) bool {
	rec, ok := c.workers[name]
	return ok && rec.registered && now.Sub(rec.lastSeen) > c.cfg.StaleAfter
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
		for _, rec := range c.workers {
			c.renewLocked(rec.group, c.cfg.Clock(), true)
		}
		c.bumpLocked()
	}
}

// ActiveLeases reports the outstanding lease count (drain waits on it).
func (c *Coordinator) ActiveLeases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(c.cfg.Clock())
	return len(c.leases)
}

// PersistCost writes the learned cost model to its store sidecar.
func (c *Coordinator) PersistCost() error {
	return c.cost.Persist(c.cfg.Store, c.cfg.CostSidecar)
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
				out = append(out, fmt.Sprintf("%s %s: %s", es.id, it.key, it.failMsg))
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

// lease sends worker the next unsent cell of its group, or grants it
// the group at the head of the pending queue (one lease per cell) and
// sends its first cell; the group's leases fall due LeaseTTL from now.
func (c *Coordinator) lease(worker string) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()
	rec := c.touchWorkerLocked(worker)
	c.reapLocked(now)
	if c.complete {
		return LeaseResponse{Status: StatusDone}
	}
	if c.draining {
		return LeaseResponse{Status: StatusDraining}
	}
	var l *leaseRec
	for _, m := range rec.group {
		if c.leases[m.id] == m && !m.sent {
			l = m
			break
		}
	}
	if l == nil {
		if len(c.pending) == 0 {
			return LeaseResponse{Status: StatusWait, RetryMs: c.cfg.WaitRetry.Milliseconds()}
		}
		if c.dirty {
			sortPending(c.pending, c.cost)
			c.dirty = false
		}
		n := groupEnd(c.pending, 0)
		rec.group = make([]*leaseRec, n)
		for k, it := range c.pending[:n] {
			it.state = stateLeased
			c.seq++
			rec.group[k] = &leaseRec{id: "l-" + strconv.FormatInt(c.seq, 10), item: it, worker: worker, group: rec.group}
			c.leases[rec.group[k].id] = rec.group[k]
		}
		c.pending = c.pending[n:]
		rec.leases++
		if m := rec.group[0].item.model; m != "" {
			rec.models[m] = true
		}
		l = rec.group[0]
		c.bumpLocked()
	}
	l.sent = true
	c.renewLocked(l.group, now, false)
	it := l.item
	return LeaseResponse{Status: StatusLease, Lease: &Lease{
		ID: l.id, Exp: it.exp, Index: it.index, Key: it.key,
		Fingerprint: it.fp, TTLMs: c.cfg.LeaseTTL.Milliseconds(),
	}}
}

// push ingests one completed (or failed) cell. Pushes are keyed by
// fingerprint, not lease: a push arriving after its lease expired is
// still good work and is accepted (idempotently, if another worker got
// there first) — the lease only bounds how long the coordinator waits
// before rescheduling. A non-"" msg describes the rejection.
func (c *Coordinator) push(req PushRequest) (PushResponse, int, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(req.Worker).pushes++
	it, ok := c.items[req.Fingerprint]
	if !ok {
		return PushResponse{}, http.StatusNotFound, fmt.Sprintf("push rejected for cell %s", req.Fingerprint)
	}
	// The lease is finished on every settling outcome (accepted work,
	// recorded failure, permanent conflict) — but deliberately NOT on a
	// transient store failure, where the worker will retry the push: if
	// it dies instead, the still-tracked lease expires and requeues the
	// cell rather than stranding it leased forever. The holder's other
	// leases of the group get a fresh deadline, so LeaseTTL bounds one
	// cell, not the group; an exiting worker's unsent ones requeue.
	groupDone := false
	finishLease := func() {
		if l, ok := c.leases[req.LeaseID]; ok && l.item == it {
			delete(c.leases, l.id)
			groupDone = !c.renewLocked(l.group, c.cfg.Clock(), req.Exiting)
		}
	}
	defer func() {
		if groupDone {
			// Persist once per settled group, so a killed coordinator
			// keeps what its finished groups taught; the write is atomic.
			_ = c.cost.Persist(c.cfg.Store, c.cfg.CostSidecar)
		}
		c.bumpLocked()
		c.checkCompleteLocked()
	}()
	if req.Err != "" {
		finishLease()
		if it.state != stateDone {
			it.state = stateFailed
			it.failMsg = req.Err
		}
		return PushResponse{Status: PushFailedRecorded}, http.StatusOK, ""
	}
	// Variant provenance gates the ingest: a freshly computed cell from
	// a different GEMM tier than the store's recorded one is refused
	// before its bytes land, so a mixed-hardware fleet fails at push
	// time instead of poisoning the store.
	if req.Computed && req.KernelVariant != "" {
		if spec, ok := c.specs[it.grid]; ok {
			if err := c.cfg.Store.StampVariants(spec.ID, spec.Seed, []string{req.KernelVariant}); err != nil {
				finishLease()
				return PushResponse{}, http.StatusConflict, err.Error()
			}
		}
	}
	status, err := c.cfg.Store.IngestCell(req.Fingerprint, req.Payload)
	if resultstore.IsCellConflict(err) || resultstore.IsBadPayload(err) {
		// Permanent rejections — a differing-valid-payload conflict
		// (fingerprint collision or nondeterministic cell) or an invalid
		// envelope — surface as 409 so the worker fails loudly instead of
		// retrying bytes that can never land.
		finishLease()
		return PushResponse{}, http.StatusConflict, err.Error()
	}
	if err != nil {
		// A store I/O failure (full disk, torn write, injected fault) is
		// the coordinator's problem, not the payload's: answer 500 so the
		// worker retries the identical push once the store recovers.
		return PushResponse{}, http.StatusInternalServerError,
			fmt.Sprintf("store ingest failed for cell %s: %v", req.Fingerprint, err)
	}
	finishLease()
	if it.state != stateDone {
		it.state = stateDone
	}
	if req.Computed && req.DurationMs > 0 {
		c.cost.Observe(req.Fingerprint, it.axes, time.Duration(req.DurationMs*float64(time.Millisecond)))
		c.dirty = true
	}
	if status == resultstore.IngestIdentical {
		return PushResponse{Status: PushIdentical}, http.StatusOK, ""
	}
	return PushResponse{Status: PushStored}, http.StatusOK, ""
}

// ---- HTTP plumbing ----

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// decodeBody decodes r's JSON body into v, reading at most
// maxBodyBytes of it. On failure it answers 413 (body over the cap) or
// 400 (malformed, the message prefixed by what) and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}, what string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
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
	if v := c.recordedVariants(fp); len(v) > 0 {
		w.Header().Set(VariantsHeader, strings.Join(v, ","))
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

// recordedVariants returns the kernel variants the store's manifest
// records for the grid that schedules fp (none for a cell outside the
// schedule or a grid without a manifest).
func (c *Coordinator) recordedVariants(fp string) []string {
	c.mu.Lock()
	it, ok := c.items[fp]
	var spec harness.GridSpec
	if ok {
		spec = c.specs[it.grid]
	}
	c.mu.Unlock()
	if !ok {
		return nil
	}
	m, _ := c.cfg.Store.LoadManifest(spec.ID, spec.Seed)
	return m.KernelVariants
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
