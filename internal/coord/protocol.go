// Wire protocol of the sweep coordinator: plain JSON over HTTP,
// stdlib-only on both sides. Workers are pull-based — they ask for a
// cell lease (the coordinator grants a whole model group and sends its
// cells in a row), compute it with the same harness code a local run
// uses, and push the resulting store payload back — so the coordinator
// never needs to know worker addresses, and a crashed worker costs
// exactly one lease timeout. A push asks for the worker's next cell
// (PushRequest.Next) and its answer carries it (PushResponse.Next), so
// a worker in steady state makes one round trip per cell: POST
// /v1/lease serves only its first request and those after a wait.
//
// Endpoints (all under /v1):
//
//	POST /v1/lease     LeaseRequest  -> LeaseResponse (first cell, after a wait)
//	POST /v1/push      PushRequest   -> PushResponse (with Next: the next
//	                                    LeaseResponse)
//	POST /v1/workers   WorkerHello   -> WorkerAck (register/heartbeat)
//	GET  /v1/workers   -> WorkersSnapshot (fleet view)
//	GET  /v1/cell/<fp> -> raw stored cell envelope (200, with the grid's
//	                      recorded kernel variants in VariantsHeader) or 404
//	GET  /v1/progress  ?gen=N&timeout_ms=M  -> ProgressSnapshot (long-poll)
//	GET  /v1/coverage  -> text coverage table (fp8bench -coverage style)
//	GET  /v1/healthz   -> "ok"
package coord

import "encoding/json"

// maxBodyBytes caps the bodies both sides read from the other: the
// coordinator answers 413 to a request body over it, and workers read
// at most this much of a lease, push or cell response.
const maxBodyBytes = 16 << 20

// jsonContentType is the Content-Type value of every JSON request and
// answer, shared: Header.Set would allocate a slice per message.
var jsonContentType = []string{"application/json"}

// VariantsHeader carries, on a GET /v1/cell/<fp> response, the kernel
// variants the coordinator's store records for the grid that schedules
// the cell, comma-separated (absent when none is recorded). A warming
// store checks it before the cell lands.
const VariantsHeader = "X-Kernel-Variants"

// Lease statuses returned by POST /v1/lease and in PushResponse.Next.
const (
	// StatusLease carries a leased cell.
	StatusLease = "lease"
	// StatusWait means no cell is grantable right now (everything is
	// leased out) but the schedule is not finished — retry after
	// RetryMs.
	StatusWait = "wait"
	// StatusDone means every scheduled cell is done or permanently
	// failed; workers should exit.
	StatusDone = "done"
	// StatusDraining means the coordinator is shutting down and refuses
	// new leases; workers should exit after pushing in-flight work.
	StatusDraining = "draining"
)

// LeaseRequest asks for the next cell of work.
type LeaseRequest struct {
	// Worker is a free-form worker identity, used only for logging and
	// lease bookkeeping.
	Worker string `json:"worker"`
}

// Lease is one granted cell of a model group, pushed on its own.
type Lease struct {
	// ID names the grant the cell belongs to: every cell of the model
	// group granted to one worker carries the same ID, and each push
	// names it as PushRequest.LeaseID.
	ID string `json:"id"`
	// Exp is the experiment id (resolved via harness.Get on the worker).
	Exp string `json:"exp"`
	// Index is the row-major cell index in the experiment's grid.
	Index int `json:"index"`
	// Key is the human-readable cell label ("model=...,recipe=...").
	Key string `json:"key"`
	// Fingerprint is the cell's content address. The worker recomputes
	// it from its own spec and refuses the lease on mismatch — a
	// coordinator and worker built from different schedules must fail
	// loudly, not push cells under wrong addresses.
	Fingerprint string `json:"fingerprint"`
	// TTLMs is the lease duration: a push arriving later than this may
	// find the cell re-leased to another worker (the late push is still
	// accepted if it gets there first). It restarts at each answer that
	// sends a cell of the grant and at each push.
	TTLMs int64 `json:"ttl_ms"`
}

// LeaseResponse answers a lease request.
type LeaseResponse struct {
	Status string `json:"status"`
	Lease  *Lease `json:"lease,omitempty"`
	// RetryMs suggests how long to wait before retrying (StatusWait).
	RetryMs int64 `json:"retry_ms,omitempty"`
}

// PushRequest delivers a completed (or failed) cell.
type PushRequest struct {
	Worker string `json:"worker"`
	// LeaseID is the cell's grant (Lease.ID).
	LeaseID string `json:"lease_id"`
	// Fingerprint is the cell's content address (must match the lease).
	Fingerprint string `json:"fingerprint"`
	// Payload is the exact store envelope (resultstore.EncodeCell) for
	// a successful cell; empty when Err is set.
	Payload json.RawMessage `json:"payload,omitempty"`
	// Computed is true when the worker actually ran the cell (false for
	// a local cache hit, which says nothing about the worker's tier).
	Computed bool `json:"computed"`
	// KernelVariant is the GEMM tier the worker dispatched (avx2, sse,
	// generic), set only for freshly computed cells — the same rule the
	// local executor uses to stamp manifest provenance. The coordinator
	// unions it into the grid manifest and refuses a push whose tier
	// conflicts with the store's recorded one, so a mixed-hardware fleet
	// fails loudly instead of poisoning the store (pin FP8_KERNEL on
	// every worker to mix hardware). Empty (older workers) stamps
	// nothing.
	KernelVariant string `json:"kernel_variant,omitempty"`
	// Err marks a cell that could not be evaluated (RunCell panic,
	// unknown experiment, schedule mismatch). The coordinator records
	// it as permanently failed — cell failures are deterministic, so
	// retrying on another worker would just fail again.
	Err string `json:"err,omitempty"`
	// Exiting says the worker stops after this push (it was cancelled):
	// the cells of its group it has not received requeue at once.
	Exiting bool `json:"exiting,omitempty"`
	// Next asks for the worker's next cell in the answer (set unless
	// Exiting), in place of a lease request. It is asked for, not
	// implied by a push, so a client that never reads PushResponse.Next
	// (an older worker, a test or tool driving the two calls by hand)
	// keeps the lease-then-push protocol: an answer it ignored would
	// send it a cell it never computes, stranded until the grant's
	// LeaseTTL runs out, and its next lease request would skip past
	// that cell. A push with Next that names
	// another cell than the one the coordinator last sent this worker,
	// while that cell is still leased under a live grant, tells the
	// coordinator the answer that sent it was lost: the answer sends
	// that cell again.
	Next bool `json:"next,omitempty"`
}

// Push statuses returned by POST /v1/push.
const (
	// PushStored means the payload was ingested into the store.
	PushStored = "stored"
	// PushIdentical means the store already held byte-identical payload
	// (an idempotent duplicate: a re-pushed cell or an expired lease
	// whose work was redone elsewhere).
	PushIdentical = "identical"
	// PushFailedRecorded means the cell's Err was recorded.
	PushFailedRecorded = "failed-recorded"
)

// PushResponse answers a push.
type PushResponse struct {
	Status string `json:"status"`
	// Next is the lease answer to the push's Next: set on a 200 answer to
	// a push with Next, never on an exiting push's or an error answer.
	Next *LeaseResponse `json:"next,omitempty"`
}

// ProgressSnapshot is the long-poll progress payload: the coordinator's
// live -coverage view. Gen increases on every state change; pass it
// back as ?gen= to block until something new happens.
type ProgressSnapshot struct {
	Gen      int64 `json:"gen"`
	Draining bool  `json:"draining"`
	// Complete is true once every scheduled cell is done or failed.
	Complete    bool          `json:"complete"`
	Experiments []ExpProgress `json:"experiments"`
}

// ExpProgress is one experiment's schedule state.
type ExpProgress struct {
	Exp     string  `json:"exp"`
	Grid    string  `json:"grid"`
	Total   int     `json:"total"`
	Done    int     `json:"done"`
	Failed  int     `json:"failed"`
	Leased  int     `json:"leased"`
	Pending int     `json:"pending"`
	Percent float64 `json:"percent"`
}

// WorkerHello registers (or heartbeats) a worker with the coordinator.
// Workers send it on startup and then every HeartbeatMs; a worker that
// stops arriving is declared stale and its leases expire early instead
// of waiting out the full TTL.
type WorkerHello struct {
	Worker string `json:"worker"`
	// Host and Pid locate the process for fleet debugging.
	Host string `json:"host,omitempty"`
	Pid  int    `json:"pid,omitempty"`
	// KernelVariant is the GEMM tier this worker dispatches, for fleet
	// visibility (the push path still enforces tier consistency).
	KernelVariant string `json:"kernel_variant,omitempty"`
}

// WorkerAck answers a hello.
type WorkerAck struct {
	// HeartbeatMs is how often the coordinator wants the worker to
	// re-hello.
	HeartbeatMs int64 `json:"heartbeat_ms"`
}

// WorkerInfo is one worker's fleet state in GET /v1/workers.
type WorkerInfo struct {
	Worker        string `json:"worker"`
	Host          string `json:"host,omitempty"`
	Pid           int    `json:"pid,omitempty"`
	KernelVariant string `json:"kernel_variant,omitempty"`
	// Registered is true for workers that sent a hello (lease/push
	// traffic alone tracks a worker but does not opt it into stale
	// detection — an old worker with no heartbeat loop must keep its
	// plain lease TTL).
	Registered bool `json:"registered"`
	// IdleMs is how long since the worker was last heard from.
	IdleMs int64 `json:"idle_ms"`
	// Stale is true when a registered worker has been silent past the
	// coordinator's stale threshold.
	Stale bool `json:"stale"`
	// Leases counts the groups granted to this worker, Pushes its cells.
	Leases int `json:"leases"`
	Pushes int `json:"pushes"`
	// Models counts the distinct models of the groups leased to this
	// worker: the model setups (build, warm-up, FP32 reference) it has
	// paid.
	Models int `json:"models"`
}

// WorkersSnapshot is the GET /v1/workers payload, sorted by worker name.
type WorkersSnapshot struct {
	Workers []WorkerInfo `json:"workers"`
}

// errorResponse is the JSON body of non-2xx protocol answers.
type errorResponse struct {
	Error string `json:"error"`
}
