package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fp8quant/internal/coord"
	"fp8quant/internal/harness"
	"fp8quant/internal/resultstore"
)

// childSpec tells a child process what to run. Every repetition of every
// workload runs in a fresh child, so each sweep starts cold.
type childSpec struct {
	// Mode is "sweep" (executor or traced pool), "fleet" (coordinator
	// plus worker processes) or "worker" (a fleet worker).
	Mode   string   `json:"mode"`
	Models []string `json:"models,omitempty"`
	Store  string   `json:"store,omitempty"`
	Traced bool     `json:"traced,omitempty"`
	// SetupOnly ends the child once set-up is done (ReadyNs), before any
	// cell runs.
	SetupOnly bool `json:"setup_only,omitempty"`
	// URL, Proc and Out configure a worker: the coordinator, the name it
	// and its spans carry, and the file its report goes to.
	URL  string `json:"url,omitempty"`
	Proc string `json:"proc,omitempty"`
	Out  string `json:"out,omitempty"`
}

// childReport is what a child prints as its last line. Times are Unix
// nanoseconds, so the parent can relate them to its own clock.
type childReport struct {
	// ReadyNs ends set-up: the first cell starts (sweeps), or the
	// coordinator serves (fleet).
	ReadyNs int64 `json:"ready_ns"`
	// StartNs and EndNs bound the timed window: first cell start (sweeps)
	// or worker exec (fleet), to the last cell done (sweeps) or
	// Coordinator.Done (fleet).
	StartNs int64    `json:"start_ns"`
	EndNs   int64    `json:"end_ns"`
	Cells   int      `json:"cells"`
	Errors  []string `json:"errors,omitempty"`
	// WorkerRSSKB is the largest fleet worker's peak RSS.
	WorkerRSSKB int64 `json:"worker_rss_kb,omitempty"`
	// Mem holds the Go runtime counters of every process that did the
	// work, summed over the window.
	Mem   memCounts   `json:"mem"`
	Coord coordCounts `json:"coord"`
	Spans []span      `json:"spans,omitempty"`
}

type memCounts struct {
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	GCCycles   uint64 `json:"gc_cycles"`
	GCPauseNs  uint64 `json:"gc_pause_ns"`
}

func (m *memCounts) add(o memCounts) {
	m.AllocBytes += o.AllocBytes
	m.Mallocs += o.Mallocs
	m.GCCycles += o.GCCycles
	m.GCPauseNs += o.GCPauseNs
}

func memDelta(a, b *runtime.MemStats) memCounts {
	return memCounts{
		AllocBytes: b.TotalAlloc - a.TotalAlloc,
		Mallocs:    b.Mallocs - a.Mallocs,
		GCCycles:   uint64(b.NumGC - a.NumGC),
		GCPauseNs:  b.PauseTotalNs - a.PauseTotalNs,
	}
}

// coordCounts are the coordinator calls a traced fleet saw.
type coordCounts struct {
	Leases int `json:"leases"`
	Waits  int `json:"waits"`
	Pushes int `json:"pushes"`
	Stored int `json:"stored"`
}

func (c *coordCounts) add(o coordCounts) {
	c.Leases += o.Leases
	c.Waits += o.Waits
	c.Pushes += o.Pushes
	c.Stored += o.Stored
}

// childTimeout bounds a fleet child's wait for its workers, so a stuck
// fleet fails the run instead of hanging it.
const childTimeout = 150 * time.Second

// runChildMode runs this process as a child and prints its report.
func runChildMode(arg string) error {
	var cs childSpec
	if err := json.Unmarshal([]byte(arg), &cs); err != nil {
		return fmt.Errorf("bad child spec: %w", err)
	}
	var rep childReport
	var err error
	switch cs.Mode {
	case "sweep":
		if cs.Traced {
			rep, err = tracedSweep(cs)
		} else {
			rep, err = executorSweep(cs)
		}
	case "fleet":
		rep, err = fleet(cs)
	case "worker":
		return worker(cs)
	default:
		return fmt.Errorf("unknown child mode %q", cs.Mode)
	}
	if err != nil {
		return err
	}
	return emit(os.Stdout, rep)
}

func emit(w io.Writer, rep childReport) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// table2 returns the Table-2 experiment and the filter selecting the
// models' cells.
func table2(models []string) (harness.Experiment, harness.Filter, error) {
	e, ok := harness.Get("table2")
	if !ok {
		return nil, nil, fmt.Errorf("experiment table2 is not registered")
	}
	return e, harness.Filter{"model": models}, nil
}

// executorSweep runs the cells through harness.RunGrid into the store,
// exactly as fp8bench -exp table2 -filter would.
func executorSweep(cs childSpec) (childReport, error) {
	var rep childReport
	e, f, err := table2(cs.Models)
	if err != nil {
		return rep, err
	}
	s, err := resultstore.Open(cs.Store)
	if err != nil {
		return rep, err
	}
	harness.SetWorkers(benchWorkers)
	harness.SetStore(s)
	// The executor reports progress 0 right before its first cell: that
	// instant ends set-up and starts the window.
	harness.SetProgress(func(_ string, done, _ int) {
		if done != 0 {
			return
		}
		rep.ReadyNs = time.Now().UnixNano()
		if cs.SetupOnly {
			if err := emit(os.Stdout, rep); err != nil {
				fmt.Fprintf(os.Stderr, "child: %v\n", err)
				os.Exit(1)
			}
			os.Exit(0)
		}
	})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g, sel, err := harness.RunGrid(e, f, harness.Shard{})
	if err != nil {
		return rep, err
	}
	rep.EndNs = time.Now().UnixNano()
	runtime.ReadMemStats(&m1)
	rep.Mem = memDelta(&m0, &m1)
	rep.StartNs = rep.ReadyNs
	for _, i := range sel {
		rep.Cells++
		if r := g.Results[i]; r.Err != "" {
			rep.Errors = append(rep.Errors, r.Err)
		}
	}
	return rep, nil
}

// tracedSweep runs the cells through a cellPath on benchWorkers
// goroutines that claim cells in executor order.
func tracedSweep(cs childSpec) (childReport, error) {
	var rep childReport
	e, f, err := table2(cs.Models)
	if err != nil {
		return rep, err
	}
	s, err := resultstore.Open(cs.Store)
	if err != nil {
		return rep, err
	}
	spec := e.Spec()
	sel := spec.Select(f)
	p := &cellPath{tr: newTracer("sweep")}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rep.ReadyNs = time.Now().UnixNano()
	rep.StartNs = rep.ReadyNs
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(benchWorkers)
	for w := 0; w < benchWorkers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(sel); i = int(next.Add(1)) - 1 {
				if r := p.run(spec, spec.CellAt(sel[i]), s); r.Err != "" {
					mu.Lock()
					rep.Errors = append(rep.Errors, r.Err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	rep.EndNs = time.Now().UnixNano()
	runtime.ReadMemStats(&m1)
	rep.Cells = len(sel)
	rep.Mem = memDelta(&m0, &m1)
	rep.Spans = p.tr.snapshot()
	return rep, nil
}

// fleet serves the cells from an in-process coordinator on loopback to
// benchWorkers worker processes of this binary.
func fleet(cs childSpec) (childReport, error) {
	var rep childReport
	e, f, err := table2(cs.Models)
	if err != nil {
		return rep, err
	}
	s, err := resultstore.Open(cs.Store)
	if err != nil {
		return rep, err
	}
	c, err := coord.New(coord.Config{Experiments: []harness.Experiment{e}, Filter: f, Store: s})
	if err != nil {
		return rep, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rep, err
	}
	var h http.Handler = c.Handler()
	var tap *coordTap
	if cs.Traced {
		tap = &coordTap{h: h, tr: newTracer("coord"), leased: map[string]span{}}
		h = tap
	}
	srv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	rep.ReadyNs = time.Now().UnixNano()
	if cs.SetupOnly {
		return rep, nil
	}
	self, err := os.Executable()
	if err != nil {
		return rep, err
	}
	url := "http://" + ln.Addr().String()
	cmds := make([]*exec.Cmd, benchWorkers)
	logs := make([]bytes.Buffer, benchWorkers)
	reports := make([]string, benchWorkers)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rep.StartNs = time.Now().UnixNano()
	for i := range cmds {
		reports[i] = fmt.Sprintf("%s.w%d.json", cs.Store, i)
		b, err := json.Marshal(childSpec{Mode: "worker", Traced: cs.Traced, URL: url, Proc: fmt.Sprintf("w%d", i), Out: reports[i]})
		if err != nil {
			return rep, err
		}
		cmds[i] = exec.Command(self, "-child", string(b))
		cmds[i].Stderr = &logs[i]
		if err := cmds[i].Start(); err != nil {
			stopWorkers(cmds[:i])
			return rep, fmt.Errorf("starting worker %d: %w", i, err)
		}
	}
	exited := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(len(cmds))
	for _, cmd := range cmds {
		go func(cmd *exec.Cmd) {
			defer wg.Done()
			_ = cmd.Wait() // a worker signalled after Done may exit nonzero
		}(cmd)
	}
	go func() {
		wg.Wait()
		close(exited)
	}()
	select {
	case <-c.Done():
		rep.EndNs = time.Now().UnixNano()
	case <-exited:
		rep.Errors = append(rep.Errors, "every worker exited before the schedule completed")
	case <-time.After(childTimeout):
		rep.Errors = append(rep.Errors, fmt.Sprintf("schedule incomplete after %v", childTimeout))
	}
	// Idle workers would poll on for up to 1.5 s (the coordinator's wait
	// hint); the window is over, so stop them now.
	for _, cmd := range cmds {
		_ = cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	}
	<-exited
	runtime.ReadMemStats(&m1)
	rep.Mem = memDelta(&m0, &m1)
	for i, cmd := range cmds {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rep.WorkerRSSKB = max(rep.WorkerRSSKB, ru.Maxrss)
		}
		if rep.EndNs == 0 {
			fmt.Fprintf(os.Stderr, "worker %d log:\n%s", i, logs[i].String())
		}
	}
	for _, fp := range c.FailedCells() {
		rep.Errors = append(rep.Errors, "cell failed: "+fp)
	}
	if snap := c.Snapshot(); len(snap.Experiments) > 0 {
		rep.Cells = snap.Experiments[0].Total
	}
	if tap != nil {
		rep.Coord = tap.counts
		rep.Spans = tap.tr.snapshot()
	}
	for _, path := range reports {
		wr, err := readReport(path)
		if err != nil {
			return rep, err
		}
		rep.Spans = append(rep.Spans, wr.Spans...)
		rep.Mem.add(wr.Mem)
	}
	return rep, nil
}

// stopWorkers kills and reaps already-started workers.
func stopWorkers(cmds []*exec.Cmd) {
	for _, cmd := range cmds {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
}

func readReport(path string) (childReport, error) {
	var rep childReport
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, fmt.Errorf("worker report: %w", err)
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("worker report %s: %w", path, err)
	}
	return rep, nil
}

// worker runs a coord.Worker as fp8bench -worker -no-cache does: every
// leased cell through harness.ComputeCell with no store. A traced
// worker runs the Table-2 cells through a cellPath instead. It works
// until the coordinator is done or SIGTERM arrives, then writes its Go
// runtime counters (and spans) to cs.Out.
func worker(cs childSpec) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w := &coord.Worker{URL: cs.URL, Name: cs.Proc}
	var path *cellPath
	if cs.Traced {
		e, _, err := table2(nil)
		if err != nil {
			return err
		}
		path = &cellPath{tr: newTracer(cs.Proc)}
		te := tracedExp{Experiment: e, spec: e.Spec(), path: path}
		w.Resolve = func(id string) (harness.Experiment, bool) { return te, id == e.ID() }
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	stats, err := w.Run(ctx)
	if err != nil && ctx.Err() == nil {
		return fmt.Errorf("worker %s: %w", cs.Proc, err)
	}
	runtime.ReadMemStats(&m1)
	rep := childReport{Cells: stats.Computed, Mem: memDelta(&m0, &m1)}
	if path != nil {
		rep.Spans = path.tr.snapshot()
	}
	var b bytes.Buffer
	if err := emit(&b, rep); err != nil {
		return err
	}
	return os.WriteFile(cs.Out, b.Bytes(), 0o644)
}

// coordTap wraps the coordinator's handler and records a span per lease,
// push and hello, plus a coord.cell span from each lease to its push.
type coordTap struct {
	h  http.Handler
	tr *tracer

	mu     sync.Mutex
	leased map[string]span // lease id -> its lease span
	counts coordCounts
}

// recorder keeps a copy of the response body.
type recorder struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (r *recorder) Write(b []byte) (int, error) {
	r.body.Write(b)
	return r.ResponseWriter.Write(b)
}

func (t *coordTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := map[string]string{"/v1/lease": "coord.lease", "/v1/push": "coord.push", "/v1/workers": "coord.workers"}[r.URL.Path]
	if name == "" {
		t.h.ServeHTTP(w, r)
		return
	}
	var push coord.PushRequest
	if name == "coord.push" {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_ = json.Unmarshal(b, &push) // a bad body is the coordinator's to reject
		r.Body = io.NopCloser(bytes.NewReader(b))
	}
	rec := &recorder{ResponseWriter: w}
	s := t.tr.begin(name, push.Fingerprint, 0)
	t.h.ServeHTTP(rec, r)
	s.End = time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch name {
	case "coord.lease":
		var lr coord.LeaseResponse
		_ = json.Unmarshal(rec.body.Bytes(), &lr) // error answers count as neither
		switch {
		case lr.Status == coord.StatusLease && lr.Lease != nil:
			t.counts.Leases++
			s.Trace = lr.Lease.Fingerprint
			t.leased[lr.Lease.ID] = s
		case lr.Status == coord.StatusWait:
			t.counts.Waits++
		}
	case "coord.push":
		t.counts.Pushes++
		var pr coord.PushResponse
		if json.Unmarshal(rec.body.Bytes(), &pr) == nil && pr.Status == coord.PushStored {
			t.counts.Stored++
		}
		if l, ok := t.leased[push.LeaseID]; ok {
			delete(t.leased, push.LeaseID)
			cell := t.tr.begin("coord.cell", push.Fingerprint, 0)
			cell.Start, cell.End = l.End, s.Start
			t.tr.record(cell)
		}
	}
	t.tr.record(s)
}
