// Command fp8coord is the sweep coordinator: a long-running HTTP
// control plane that owns a grid schedule end to end. It derives the
// cell set from the requested experiments, grants it to pull-based
// fp8bench workers one model group (every pending cell of one model)
// at a time and leases them the group's cells one by one, the group
// with the most pending cells first, ingests pushed payloads
// into its content-addressed result store under the store's ingest
// conflict rules, and serves live coverage over a long-poll endpoint.
// It is how a sweep spans machines.
//
// Usage:
//
//	fp8coord -exp table3                        coordinate one grid
//	fp8coord -exp all -addr :8123               all experiments, fixed port
//	fp8coord -addr 127.0.0.1:0 -addr-file a.txt ephemeral port for scripts
//	fp8coord -exp table3 -once                  exit when the schedule completes
//	fp8coord -exp table3 -once -linger 1s       ...serving 1s more, and on until waiting workers are back
//	fp8bench -worker http://host:8123           ...then point workers at it
//	fp8coord -exp table3 -cpuprofile cpu.out -memprofile mem.out   profile the coordinator
//
// Workers pull: the coordinator never needs their addresses, and a
// crashed worker costs one lease timeout (-lease-ttl, per grant,
// renewed by each answer sending one of its cells and each push, so it
// bounds one cell), after which the group's unpushed cells requeue. With -once the
// coordinator lingers after completion for -linger and, beyond it,
// until every worker it told to wait can have come back and been told
// done, so no worker spends its retry budget against a closed port. SIGINT/SIGTERM drain gracefully: new leases
// are refused and cells reserved but not yet sent requeue, in-flight
// pushes are accepted until -drain-timeout, and the final coverage
// table is printed.
// The coordinator keeps no timing state, so its store ends up
// byte-identical to a local run's (cells and manifests only): a warm
// `fp8bench -exp ...` against it renders the local run's reports,
// -coverage works unchanged, and `fp8bench -warm-from` copies the cells
// into another machine's store.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"fp8quant/internal/coord"
	"fp8quant/internal/faultline"
	"fp8quant/internal/harness"
	"fp8quant/internal/profile"
	"fp8quant/internal/resultstore"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:0", "listen address (port 0 = ephemeral)")
	addrFile := flag.String("addr-file", "", "write the resolved listen URL to this file (for scripts racing an ephemeral port)")
	exp := flag.String("exp", "all", "comma-separated experiment ids to schedule (or 'all')")
	filterFlag := flag.String("filter", "", `schedule only matching cells, e.g. "model=resnet50;densenet121"`)
	cacheDir := flag.String("cache-dir", resultstore.DefaultDir(), "result-store directory receiving pushed cells (required)")
	leaseTTL := flag.Duration("lease-ttl", 5*time.Minute, "how long a worker's grant may go without a cell sent or pushed before its unpushed cells requeue")
	once := flag.Bool("once", false, "exit once every scheduled cell is done or failed")
	linger := flag.Duration("linger", 5*time.Second, "with -once, keep serving this long after completion (and until every worker told to wait is back) so workers observe 'done'")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "on SIGINT/SIGTERM, how long to wait for in-flight leases before exiting")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the coordinator's run to `file`")
	memProfile := flag.String("memprofile", "", "write a heap profile to `file` when the coordinator exits")
	flag.Parse()

	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fp8coord: %v\n", err)
		return 1
	}
	defer stopProfiles()

	if armed, err := faultline.ArmFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "fp8coord: %v\n", err)
		return 1
	} else if armed {
		// Chaos runs announce themselves so a log is never mistaken for
		// a clean run; the stats print at exit for replay comparison.
		fmt.Fprintf(os.Stderr, "fp8coord: faultline armed from %s\n", faultline.EnvVar)
		defer fmt.Fprint(os.Stderr, faultline.Report())
	}

	if *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "fp8coord: -cache-dir is required (pushed cells have nowhere to go)")
		return 1
	}
	store, err := resultstore.Open(*cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fp8coord: opening store: %v\n", err)
		return 1
	}
	filter, err := harness.ParseFilter(*filterFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fp8coord: -filter: %v\n", err)
		return 1
	}
	ids, err := harness.ResolveIDs(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fp8coord: %v; ids: %s\n", err, strings.Join(harness.IDs(), ", "))
		return 1
	}
	exps := make([]harness.Experiment, len(ids))
	for i, id := range ids {
		exps[i], _ = harness.Get(id)
	}

	c, err := coord.New(coord.Config{
		Experiments: exps,
		Filter:      filter,
		Store:       store,
		LeaseTTL:    *leaseTTL,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fp8coord: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fp8coord: listen: %v\n", err)
		return 1
	}
	url := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "fp8coord: serving %d experiment(s) on %s (store %s)\n", len(exps), url, store.Dir())
	if *addrFile != "" {
		// Best-effort convenience file; written via temp+rename so a
		// script polling it never reads a half-written URL.
		if err := writeAddrFile(*addrFile, url); err != nil {
			fmt.Fprintf(os.Stderr, "fp8coord: -addr-file: %v\n", err)
			return 1
		}
	}

	srv := &http.Server{Handler: c.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Reap expired leases on a ticker so a crashed worker's cell
	// requeues even when no other worker traffic arrives.
	reapDone := make(chan struct{})
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.Reap()
			case <-reapDone:
				return
			}
		}
	}()
	defer close(reapDone)

	// Log progress on completion changes (not every lease — that would
	// be a line per cell per worker).
	go logProgress(c)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	code := 0
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "fp8coord: %v: draining (no new leases; waiting up to %s for in-flight work)\n", s, *drainTimeout)
		c.Drain()
		waitLeases(c, *drainTimeout)
	case <-c.Done():
		if *once {
			fmt.Fprintf(os.Stderr, "fp8coord: schedule complete; lingering %s so workers observe done\n", *linger)
			c.Linger(*linger)
		} else {
			// Without -once, completion is not an exit condition: stay up
			// for late workers and watchers until signalled.
			<-sig
			c.Drain()
			waitLeases(c, *drainTimeout)
		}
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "fp8coord: serve: %v\n", err)
		code = 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "fp8coord: shutdown: %v\n", err)
	}

	snap := c.Snapshot()
	fmt.Fprint(os.Stderr, coord.CoverageText(snap))
	if failed := c.FailedCells(); len(failed) > 0 {
		for _, line := range failed {
			fmt.Fprintf(os.Stderr, "fp8coord: failed cell: %s\n", line)
		}
		code = 1
	}
	if *once && !snap.Complete {
		code = 1
	}
	return code
}

// waitLeases blocks until no leases are outstanding or the timeout
// elapses (leases still out then will simply expire server-side; their
// cells are already in the store or will be recomputed next run).
func waitLeases(c *coord.Coordinator, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.ActiveLeases() == 0 {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "fp8coord: drain timeout with %d lease(s) still out\n", c.ActiveLeases())
}

// logProgress prints a one-line summary whenever completed/failed
// counts move.
func logProgress(c *coord.Coordinator) {
	gen := int64(-1)
	lastDone, lastFailed := -1, -1
	for {
		snap := c.AwaitChange(context.Background(), gen, time.Minute)
		gen = snap.Gen
		done, failed, total := 0, 0, 0
		for _, p := range snap.Experiments {
			done += p.Done
			failed += p.Failed
			total += p.Total
		}
		if done != lastDone || failed != lastFailed {
			lastDone, lastFailed = done, failed
			fmt.Fprintf(os.Stderr, "fp8coord: progress: %d/%d cells done, %d failed\n", done, total, failed)
		}
		if snap.Complete {
			return
		}
	}
}

// writeAddrFile writes the URL atomically (temp in the same directory,
// then rename) so concurrent readers see either nothing or the full
// line.
func writeAddrFile(path, url string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".addr-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.WriteString(url + "\n"); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
