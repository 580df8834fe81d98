// Command fp8bench regenerates the paper's tables and figures.
//
// Usage:
//
//	fp8bench -list                       list available experiment ids
//	fp8bench -exp table2                 run one experiment
//	fp8bench -exp table2,fig4,fig5       run several (they share the sweep grid)
//	fp8bench -exp all                    run every experiment (slow)
//	fp8bench -exp table2 -workers 4      bound the sweep worker pool
//	fp8bench -exp table2 -filter "model=resnet50;densenet121"   run a sub-grid
//	fp8bench -exp table2 -json           machine-readable report on stdout
//	fp8bench -exp table2 -coverage       report done/missing cells per grid
//	fp8bench -cache-clear                prune stale/old-schema store entries
//	fp8bench -models                     list the 75-model zoo with metadata
//	fp8bench -worker http://host:port    pull cell leases from an fp8coord
//	fp8bench -exp table3 -cpuprofile cpu.out -memprofile mem.out   profile a run
//
// Experiments are declarative cell grids (harness.GridSpec); the
// executor fans their cells out over a bounded worker pool (-workers,
// default GOMAXPROCS) and persists every completed cell to a
// content-addressed result store (-cache-dir, default
// ~/.cache/fp8bench). An interrupted run therefore resumes from its
// completed cells, and a repeated invocation prints an identical
// report without recomputing. -no-cache disables the store; each
// experiment footer reports its cell cache traffic, and a progress
// line on stderr shows cells done/total while a grid executes.
//
// A sweep too slow for one machine runs under a coordinator:
// -worker <url> turns this process into a pull-based worker that
// leases one cell at a time from a running fp8coord (which grants it
// a whole model group and sends that group's cells in a row), computes
// it through the same cache layers as a local run, and pushes the
// store payload back over HTTP; each push's answer carries the next
// cell, so a cell costs one round trip. SIGINT/SIGTERM drain gracefully — the
// in-flight cell is finished and pushed before the worker exits, and
// that push hands the group's unstarted cells back to the coordinator.
// -warm-from <url> fills -cache-dir with the cells the coordinator
// holds, and -coverage diffs each grid's manifest against the store to
// show what is still missing. A warm run against a complete store then
// renders the full report, byte-identical to a local run.
//
// All model forward math runs on the blocked compute kernels in
// internal/tensor/kernels (packed-panel GEMM behind Linear, im2col
// Conv2d and the attention matmuls, plus the FP8 fake-quant bit map
// in internal/fp8). The kernels are bit-identical to the scalar reference
// loops for any worker count, so reports — and the content addresses
// the store relies on — are unchanged from the pre-kernel code, just
// several times faster to compute cold (`make bench-json` tracks the
// kernel trajectory in BENCH_kernels.json).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fp8quant/internal/coord"
	"fp8quant/internal/evalx"
	"fp8quant/internal/faultline"
	"fp8quant/internal/harness"
	"fp8quant/internal/models"
	"fp8quant/internal/profile"
	"fp8quant/internal/resultstore"
	"fp8quant/internal/tensor/kernels"
)

func main() {
	exp := flag.String("exp", "", "comma-separated experiment ids to run (or 'all')")
	list := flag.Bool("list", false, "list experiment ids")
	listModels := flag.Bool("models", false, "list the model zoo")
	workers := flag.Int("workers", 0, "max concurrent grid cells (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", resultstore.DefaultDir(), "persistent result-store directory ('' = disabled)")
	noCache := flag.Bool("no-cache", false, "disable the persistent result store")
	cacheClear := flag.Bool("cache-clear", false, "prune stale/old-schema entries from the result store")
	cacheMaxAge := flag.Duration("cache-max-age", 0, "with -cache-clear, also remove entries older than this age (0 = schema-stale only)")
	filterFlag := flag.String("filter", "", `run only matching cells, e.g. "model=resnet50;densenet121,recipe=E4M3 Static"`)
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report on stdout")
	coverage := flag.Bool("coverage", false, "report done/missing cells per experiment instead of running (exits nonzero if any grid is incomplete)")
	workerURL := flag.String("worker", "", "run as a pull-based sweep worker against this fp8coord URL")
	workerName := flag.String("worker-name", "", "worker identity reported to the coordinator (default host-pid-n)")
	warmFrom := flag.String("warm-from", "", "fetch the -exp grids' missing cells into -cache-dir from this fp8coord URL instead of running")
	cpuProfile := flag.String("cpuprofile", "", "with -exp, write a CPU profile of the run to `file`")
	memProfile := flag.String("memprofile", "", "with -exp, write a heap profile to `file` after the run")
	flag.Parse()
	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProfiles()
	if armed, err := faultline.ArmFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	} else if armed {
		// Chaos runs announce themselves so a log is never mistaken for
		// a clean run; the stats print at exit for replay comparison.
		fmt.Fprintf(os.Stderr, "faultline: armed from %s\n", faultline.EnvVar)
		defer fmt.Fprint(os.Stderr, faultline.Report())
	}
	if v := os.Getenv("FP8_KERNEL"); v != "" {
		// Pin the GEMM tier before any cell runs — a mixed-hardware
		// worker fleet forces one variant so every store cell carries
		// the same rounding (pushes and warms reject variant mixes).
		if err := kernels.ForceVariant(kernels.Variant(v)); err != nil {
			fmt.Fprintf(os.Stderr, "FP8_KERNEL: %v\n", err)
			os.Exit(1)
		}
	}
	harness.SetWorkers(*workers)
	if !*noCache && *cacheDir != "" {
		s, err := resultstore.Open(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "warning: result store disabled: %v\n", err)
		} else {
			harness.SetStore(s)
		}
	}
	if *cacheClear {
		s := harness.Store()
		if s == nil {
			fmt.Fprintln(os.Stderr, "-cache-clear: no result store configured")
			os.Exit(1)
		}
		n, err := s.Prune(*cacheMaxAge)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-cache-clear: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pruned %d stale entries from %s\n", n, s.Dir())
		if *exp == "" && !*coverage && !*list && !*listModels {
			return
		}
	}
	filter, err := harness.ParseFilter(*filterFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-filter: %v\n", err)
		os.Exit(1)
	}

	switch {
	case *workerURL != "":
		os.Exit(runWorker(*workerURL, *workerName))
	case *warmFrom != "":
		ids := harness.IDs()
		if *exp != "" {
			if ids, err = harness.ResolveIDs(*exp); err != nil {
				fmt.Fprintf(os.Stderr, "%v; use -list\n", err)
				os.Exit(1)
			}
		}
		os.Exit(runWarm(*warmFrom, ids))
	case *coverage:
		ids := harness.IDs()
		if *exp != "" {
			if ids, err = harness.ResolveIDs(*exp); err != nil {
				fmt.Fprintf(os.Stderr, "%v; use -list\n", err)
				os.Exit(1)
			}
		}
		incomplete, err := printCoverage(harness.Store(), ids)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-coverage: %v\n", err)
			os.Exit(1)
		}
		if incomplete > 0 {
			// Nonzero exit so scripts can gate "sweep done?" on the
			// status instead of grepping the report text.
			os.Exit(1)
		}
	case *list:
		for _, id := range harness.IDs() {
			e, _ := harness.Get(id)
			fmt.Printf("%-14s %s\n", id, e.Title())
		}
	case *listModels:
		fmt.Printf("%-24s %-7s %-14s %9s %6s %6s %8s\n",
			"name", "domain", "task", "size(MB)", "BN", "LN", "outlier")
		for _, name := range models.Names() {
			info, _ := models.InfoFor(name)
			fmt.Printf("%-24s %-7s %-14s %9.1f %6v %6v %8.0f\n",
				info.Name, info.Domain, info.Task, info.SizeMB,
				info.HasBN, info.HasLN, info.OutlierRatio)
		}
	case *exp != "":
		ids, err := harness.ResolveIDs(*exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v; use -list\n", err)
			os.Exit(1)
		}
		exps := make([]harness.Experiment, len(ids))
		for i, id := range ids {
			exps[i], _ = harness.Get(id)
		}
		if err := harness.ValidateFilterAxes(exps, filter); err != nil {
			fmt.Fprintf(os.Stderr, "-filter: %v\n", err)
			os.Exit(1)
		}
		if stderrIsTerminal() {
			harness.SetProgress(progressLine)
		}
		var outs []expReport
		failed, skipped := 0, 0
		for i, id := range ids {
			// In a batch, an experiment without the filtered axes (fig6
			// has no "model" axis, scalar fig1 has no cells at all) is
			// skipped with a note, not failed — otherwise -filter could
			// never be combined with -exp all.
			if e := exps[i]; len(filter) > 0 {
				if spec := e.Spec(); len(spec.Select(filter)) == 0 {
					if !*jsonOut {
						fmt.Fprintf(os.Stderr, "skipping %s: filter matches none of its cells\n", id)
					}
					outs = append(outs, expReport{ID: id, Title: e.Title(), Skipped: true})
					skipped++
					continue
				}
			}
			o := runOne(id, filter, *jsonOut)
			if o.Error != "" {
				failed++
			}
			outs = append(outs, o)
		}
		if skipped == len(ids) {
			fmt.Fprintf(os.Stderr, "-filter %q matches no cells in any requested experiment\n", *filterFlag)
			failed++
		}
		if *jsonOut {
			// An unencodable report (a NaN that slipped into a value)
			// must not discard the whole batch: degrade just that
			// experiment to an error stub.
			for i := range outs {
				if _, err := json.Marshal(outs[i]); err != nil {
					outs[i] = expReport{
						ID: outs[i].ID, Title: outs[i].Title,
						Error:      "json encode: " + err.Error(),
						ElapsedSec: outs[i].ElapsedSec,
						Cache:      outs[i].Cache,
					}
				}
			}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(struct {
				Experiments []expReport `json:"experiments"`
			}{outs}); err != nil {
				fmt.Fprintf(os.Stderr, "json encode: %v\n", err)
				os.Exit(1)
			}
		} else {
			fmt.Println(footprintLine())
		}
		if failed > 0 {
			stopProfiles() // os.Exit skips the deferred call
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runWorker runs the pull-based worker loop against a coordinator and
// returns the process exit code. SIGINT/SIGTERM cancel the loop's
// context: the worker finishes and pushes the cell it is computing,
// then exits instead of leasing more — a drained worker never wastes
// completed work or strands a lease until its timeout.
func runWorker(url, name string) int {
	// A worker computes one cell at a time on one goroutine, so one P is
	// its useful share of the host; with more, workers sharing a host
	// oversubscribe it with their collectors' background work.
	runtime.GOMAXPROCS(1)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// An empty name is filled by the worker itself (host-pid-counter),
	// collision-free even when several workers share a process.
	w := &coord.Worker{URL: url, Name: name, Log: os.Stderr}
	stats, err := w.Run(ctx)
	fmt.Fprintf(os.Stderr, "worker %s: done (%d computed, %d cached, %d failed)\n",
		w.Name, stats.Computed, stats.Cached, stats.Failed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-worker: %v\n", err)
		return 1
	}
	return 0
}

// runWarm fills the local result store with the requested grids'
// missing cells fetched from a coordinator, so a fresh machine joins a
// fleet (or a wiped cache recovers) without recomputing anything the
// coordinator already holds. Exits 0 even when cells are absent
// upstream — warming a store mid-sweep is normal; -coverage tells you
// whether the result is complete.
func runWarm(url string, ids []string) int {
	s := harness.Store()
	if s == nil {
		fmt.Fprintln(os.Stderr, "-warm-from: no result store configured (set -cache-dir, drop -no-cache)")
		return 1
	}
	var exps []harness.Experiment
	for _, id := range ids {
		if e, ok := harness.Get(id); ok {
			exps = append(exps, e)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	st, err := coord.Warm(ctx, url, s, exps, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-warm-from: %v\n", err)
		return 1
	}
	fmt.Printf("warmed %s from %s: %s\n", s.Dir(), url, st)
	return 0
}

// expReport is the per-experiment unit of the -json output.
type expReport struct {
	ID         string             `json:"id"`
	Title      string             `json:"title"`
	Error      string             `json:"error,omitempty"`
	Skipped    bool               `json:"skipped,omitempty"`
	ElapsedSec float64            `json:"elapsed_sec"`
	Cells      []cellReport       `json:"cells,omitempty"`
	Values     map[string]float64 `json:"values,omitempty"`
	Cache      *cacheReport       `json:"cache,omitempty"`
	// KernelVariant is the GEMM tier this process dispatched (avx2, sse
	// or generic) — the provenance consumers compare before combining
	// reports computed on different machines.
	KernelVariant string `json:"kernel_variant,omitempty"`
}

// cellReport is one executed grid cell in the -json output.
type cellReport struct {
	Key string `json:"key"`
	evalx.Result
}

// cacheReport is the experiment's result-store traffic delta.
type cacheReport struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Writes int64 `json:"writes"`
}

// printCoverage diffs each experiment's grid manifest against the
// store's on-disk cells and returns how many grids are incomplete.
// The stored manifest is preferred (it is what a completed run
// recorded, including kernel-variant provenance); a grid never run
// against this store falls back to the schedule derived from its spec.
// Experiments sharing a grid share coverage; each is still listed,
// matching -exp semantics. Scalar experiments have no cells and are
// skipped.
func printCoverage(s *resultstore.Store, ids []string) (int, error) {
	if s == nil {
		return 0, fmt.Errorf("no result store configured (set -cache-dir, drop -no-cache)")
	}
	fmt.Printf("%-14s %-22s %7s %7s %8s %9s  %s\n",
		"experiment", "grid", "cells", "done", "missing", "complete", "variant")
	incomplete := 0
	for _, id := range ids {
		e, ok := harness.Get(id)
		if !ok {
			continue
		}
		spec := e.Spec()
		if spec.NumCells() == 0 {
			continue
		}
		m, ok := s.LoadManifest(spec.ID, spec.Seed)
		if !ok {
			m = harness.ManifestFor(spec)
		}
		cov := s.Coverage(m)
		if !cov.Complete() {
			incomplete++
		}
		variant := "-"
		if len(m.KernelVariants) > 0 {
			variant = strings.Join(m.KernelVariants, ",")
		}
		fmt.Printf("%-14s %-22s %7d %7d %8d %8.1f%%  %s\n",
			id, spec.ID, cov.Total, cov.Done, len(cov.Missing), cov.Percent(), variant)
	}
	if incomplete > 0 {
		fmt.Printf("%d experiment grid(s) incomplete in %s\n", incomplete, s.Dir())
	} else {
		fmt.Printf("all experiment grids complete in %s\n", s.Dir())
	}
	return incomplete, nil
}

// runOne executes one experiment, printing its report (text mode) and
// returning the structured form (JSON mode). Panics are recovered and
// reported per experiment, so one failing experiment cannot abort an
// -exp all batch, and the elapsed-time and cache footers are printed
// either way.
func runOne(id string, f harness.Filter, jsonMode bool) (out expReport) {
	e, ok := harness.Get(id)
	if !ok {
		return expReport{ID: id, Error: "unknown experiment"}
	}
	out = expReport{ID: id, Title: e.Title(), KernelVariant: string(kernels.Active())}
	s := harness.Store()
	before := s.Stats()
	t0 := time.Now()
	if !jsonMode {
		fmt.Printf("=== %s — %s ===\n", id, e.Title())
	}
	defer func() {
		if r := recover(); r != nil {
			out.Error = fmt.Sprintf("panic: %v", r)
		}
		out.ElapsedSec = time.Since(t0).Seconds()
		if s != nil {
			d := s.Stats()
			out.Cache = &cacheReport{
				Hits:   d.Hits - before.Hits,
				Misses: d.Misses - before.Misses,
				Writes: d.Writes - before.Writes,
			}
		}
		if !jsonMode {
			if out.Error != "" {
				fmt.Fprintf(os.Stderr, "error: %s: %s\n", id, out.Error)
			}
			fmt.Printf("(%s finished in %.1fs)\n", id, out.ElapsedSec)
			if c := out.Cache; c != nil {
				fmt.Printf("(result store %s: %d hits, %d misses, %d writes)\n",
					s.Dir(), c.Hits, c.Misses, c.Writes)
			}
			// Parenthesized like the other footers so the byte-identity
			// smoke comparisons (`grep -v "^("`) skip it.
			fmt.Printf("(kernel variant: %s)\n", out.KernelVariant)
			fmt.Println()
		}
	}()
	grid, sel, err := harness.RunGrid(e, f)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	var rep *harness.Report
	if len(f) == 0 {
		rep = e.Render(grid)
	} else {
		rep = harness.SubGridReport(e, grid, sel)
	}
	out.Values = rep.Values
	if jsonMode {
		for _, i := range sel {
			c := grid.Spec.CellAt(i)
			out.Cells = append(out.Cells, cellReport{
				Key:    grid.Spec.KeyString(c),
				Result: grid.Results[i],
			})
		}
	} else {
		fmt.Println(rep.Text)
	}
	return out
}

// footprintLine is the footer after the last experiment: the process's
// peak resident set (VmHWM, left out where /proc/self/status is absent)
// and how many collections it ran. Like the other parenthesized
// footers it is out of band: it never enters a report, the -json
// output or a cell, and the smoke comparisons skip it.
func footprintLine() string {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rss := ""
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		if kb, ok := vmHWM(string(status)); ok {
			rss = fmt.Sprintf("peak RSS %.1f MiB, ", float64(kb)/1024)
		}
	}
	return fmt.Sprintf("(footprint: %s%d collections)", rss, ms.NumGC)
}

// vmHWM returns the VmHWM line's value in kB from the text of a
// /proc/<pid>/status file.
func vmHWM(status string) (int64, bool) {
	for _, line := range strings.Split(status, "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}

// progressMu serializes the progress line across cell workers.
var progressMu sync.Mutex

// progressLine rewrites the cells done/total line on stderr while a
// grid executes (installed only when stderr is a terminal).
func progressLine(id string, done, total int) {
	progressMu.Lock()
	defer progressMu.Unlock()
	fmt.Fprintf(os.Stderr, "\r%s: cells %d/%d", id, done, total)
	if done >= total {
		fmt.Fprint(os.Stderr, "\r\033[K")
	}
}

// stderrIsTerminal reports whether stderr is an interactive terminal.
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
