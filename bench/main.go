// Command bench is fp8quant's end-to-end benchmark. Each workload is a
// cold Table-2 sweep sub-grid (drawn models × the six Table-2 recipes)
// evaluated into a fresh store, either by the local executor or by the
// sweep coordinator and a fleet of worker processes, and timed from
// outside the program. Run it from the repository root through run.sh,
// which builds it from source:
//
//	bash bench/run.sh --workload sweep-cnn --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --workload fleet-token --trace 1
//	bash bench/run.sh -selfcheck 10
//	bash bench/run.sh -write-golden
//
// A run prints every metric with its unit, then, as its last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. It checks
// every stored cell against golden.json and against the run's first
// repetition, and exits nonzero if any cell failed or differs.
// README.md describes the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fp8quant/internal/tensor/kernels"
)

// buildDir holds everything the benchmark writes, relative to the
// repository root it runs from; run.sh puts the binaries there.
const buildDir = ".bench_build"

// runDeadline bounds a whole run, so that a stalled host fails the run
// instead of hanging it.
const runDeadline = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload: sweep-cnn, sweep-token or fleet-token")
	seed := flag.Uint64("seed", 1, "seed that draws the workload's models")
	seconds := flag.Int("seconds", 30, "how long a run measures; repetitions start while they fit")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from traced repetitions and write their spans to "+buildDir+"/trace-<workload>-<seed>.jsonl")
	selfcheck := flag.Int("selfcheck", 0, "run two interleaved sets of `K` runs per workload and compare their medians against the bounds")
	writeGold := flag.Bool("write-golden", false, "recompute bench/golden.json under every kernel variant the host offers")
	child := flag.String("child", "", "internal: run as a child process with this JSON spec")
	flag.Parse()

	if v := os.Getenv("FP8_KERNEL"); v != "" {
		if err := kernels.ForceVariant(kernels.Variant(v)); err != nil {
			fatalf("FP8_KERNEL: %v", err)
		}
	}
	if *child != "" {
		if err := runChildMode(*child); err != nil {
			fatalf("child: %v", err)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	work := filepath.Join(buildDir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatalf("%v", err)
	}
	switch {
	case *writeGold:
		if err := writeGolden(ctx, work); err != nil {
			fatalf("-write-golden: %v", err)
		}
	case *selfcheck > 0:
		ok, err := runSelfcheck(ctx, *selfcheck, *seconds)
		if err != nil {
			fatalf("-selfcheck: %v", err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		w, err := workloadByName(*workload)
		if err != nil {
			fatalf("%v", err)
		}
		if *trace != 0 && *trace != 1 {
			fatalf("-trace must be 0 or 1")
		}
		ctx, cancel := context.WithTimeout(ctx, runDeadline)
		defer cancel()
		ok, err := runWorkload(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, work)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// childRun is a finished child: its report and what its exit status
// told the parent.
type childRun struct {
	report childReport
	t0     int64   // Unix ns just before the child started
	cpu    float64 // s, user+system of the child and the children it reaped
	rssKB  int64
}

// runChild runs this binary as a child and decodes its report. The
// child gets its own process group, so cancelling ctx also kills a
// fleet's workers.
func runChild(ctx context.Context, cs childSpec, env ...string) (childRun, error) {
	var cr childRun
	self, err := os.Executable()
	if err != nil {
		return cr, err
	}
	spec, err := json.Marshal(cs)
	if err != nil {
		return cr, err
	}
	cmd := exec.CommandContext(ctx, self, "-child", string(spec))
	cmd.Env = append(os.Environ(), env...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cr.t0 = time.Now().UnixNano()
	if err := cmd.Run(); err != nil {
		return cr, fmt.Errorf("%s child: %w", cs.Mode, err)
	}
	if err := json.Unmarshal(lastLine(out.Bytes()), &cr.report); err != nil {
		return cr, fmt.Errorf("%s child report: %w", cs.Mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
		cr.rssKB = ru.Maxrss
	}
	return cr, nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// childMode names the child that evaluates the workload's cells.
func (w workload) childMode() string {
	if w.fleet {
		return "fleet"
	}
	return "sweep"
}

// runRep evaluates every drawn cell cold in a fresh child, into a
// temporary store, and returns the repetition with the store's cells.
func runRep(ctx context.Context, w workload, models []string, traced bool, work string) (rep, map[string]storedCell, error) {
	r := rep{traced: traced}
	dir, err := os.MkdirTemp(work, w.name+"-")
	if err != nil {
		return r, nil, err
	}
	defer os.RemoveAll(dir)
	store := filepath.Join(dir, "store")
	cr, err := runChild(ctx, childSpec{Mode: w.childMode(), Models: models, Store: store, Traced: traced})
	if err != nil {
		return r, nil, err
	}
	for _, e := range cr.report.Errors {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, e)
	}
	if cr.report.EndNs == 0 {
		return r, nil, fmt.Errorf("repetition did not complete (%d errors)", len(cr.report.Errors))
	}
	r.report = cr.report
	r.cells = cr.report.Cells
	r.setup = float64(cr.report.ReadyNs-cr.t0) / 1e9
	r.window = float64(cr.report.EndNs-cr.report.StartNs) / 1e9
	r.cpu = cr.cpu
	r.rssMB = float64(cr.rssKB) / 1024
	if w.fleet {
		r.rssMB = float64(cr.report.WorkerRSSKB) / 1024
	}
	cells, err := readStore(store)
	if err != nil {
		return r, nil, err
	}
	for _, c := range cells {
		r.bytes += c.size
	}
	return r, cells, nil
}

// setupProbes is how many extra set-ups a run times besides its
// repetitions' own: a set-up takes milliseconds, so one sample per
// repetition is too few for a steady median.
const setupProbes = 16

// probeSetup runs a child that sets up exactly as a repetition does and
// exits where the first cell would start (the coordinator would admit
// its first worker), and returns the set-up time in seconds.
func probeSetup(ctx context.Context, w workload, models []string, work string) (float64, error) {
	dir, err := os.MkdirTemp(work, w.name+"-setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	cr, err := runChild(ctx, childSpec{Mode: w.childMode(), Models: models, Store: filepath.Join(dir, "store"), SetupOnly: true})
	if err != nil {
		return 0, err
	}
	if cr.report.ReadyNs == 0 {
		return 0, fmt.Errorf("set-up probe reported no ready time")
	}
	return float64(cr.report.ReadyNs-cr.t0) / 1e9, nil
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// minReps is the fewest repetitions a run makes, however slow the host:
// peak RSS and the wall-clock trend take the best of them, and a traced
// run needs a plain repetition besides its traced one.
const minReps = 2

// runWorkload measures one workload for about `seconds` and prints the
// metrics and the result line. It reports whether every cell was
// correct.
func runWorkload(ctx context.Context, w workload, seed uint64, seconds time.Duration, traced bool, work string) (bool, error) {
	models, err := w.draw(seed)
	if err != nil {
		return false, err
	}
	g, err := loadGolden()
	if err != nil {
		return false, err
	}
	gold := g.Digests[variantKey()]
	if gold == nil {
		fmt.Fprintf(os.Stderr, "bench: golden.json has no digests for %s; cells are checked only against the run's first repetition\n", variantKey())
	}
	want, err := expectedCells(models)
	if err != nil {
		return false, err
	}
	tags := hostTags(ctx, seed)
	fmt.Printf("# %s seed=%d seconds=%v trace=%v cells=%d models=%s\n", w.name, seed, seconds.Seconds(), traced, len(want), strings.Join(models, ","))
	fmt.Printf("# provenance %s\n", tags)

	var setups []float64
	for i := 0; i < setupProbes && !traced; i++ {
		s, err := probeSetup(ctx, w, models, work)
		if err != nil {
			return false, err
		}
		setups = append(setups, s)
	}
	var reps []rep
	var first map[string]storedCell
	attempted, failed := 0, 0
	start := time.Now()
	for i := 1; ; i++ {
		// A traced run alternates plain and traced repetitions: the plain
		// ones give the tracing overhead and the executor's bytes that the
		// traced ones must reproduce.
		tr := traced && i%2 == 0
		steal0 := stealSeconds()
		r, cells, err := runRep(ctx, w, models, tr, work)
		if err != nil {
			return false, fmt.Errorf("repetition %d: %w", i, err)
		}
		stolen := stealSeconds() - steal0
		bad := checkCells(cells, want, gold, first)
		if first == nil {
			first = cells
		}
		printBad(w.name, bad)
		attempted += len(want)
		failed += len(bad)
		if !tr {
			setups = append(setups, r.setup)
		}
		reps = append(reps, r)
		fmt.Printf("rep %d%s: %d cells in %.3f s (%.3f cells/s), set-up %.4f s, cpu %.3f s, peak rss %.1f MiB, %.2f MiB and %.0f mallocs a cell, host steal %.2f s, %d bad\n",
			i, map[bool]string{true: " (traced)"}[tr], r.cells, r.window, r.cellsPerS(), r.setup, r.cpu, r.rssMB, r.allocMBPerCell(), r.mallocsPerCell(), stolen, len(bad))
		el := time.Since(start)
		if i >= minReps && el+el/time.Duration(i) > seconds {
			break
		}
	}

	defs, vals := endToEnd, endToEndMetrics(reps, setups)
	if traced {
		defs, vals = perLayer, layerMetrics(reps)
		if err := writeTrace(w, seed, tags, reps); err != nil {
			return false, err
		}
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
		fmt.Printf("%-28s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Printf("%s\n", b)
	return res.Correct, nil
}

// printBad lists a few bad cells on stderr.
func printBad(name string, bad map[string]string) {
	fps := make([]string, 0, len(bad))
	for fp := range bad {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	for i, fp := range fps {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "bench: %s: ... %d more bad cells\n", name, len(fps)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "bench: %s: cell %s: %s\n", name, fp, bad[fp])
	}
}

// writeTrace writes the traced repetitions' spans, one JSON object a
// line, after a provenance line.
func writeTrace(w workload, seed uint64, tags provenance, reps []rep) error {
	path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.jsonl", w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(tags); err != nil {
		f.Close()
		return err
	}
	for i, r := range reps {
		for _, s := range r.report.Spans {
			if err := enc.Encode(struct {
				Rep int `json:"rep"`
				span
			}{i + 1, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: spans written to %s\n", path)
	return nil
}

// stealSeconds returns the CPU time the hypervisor has taken from this
// VM's vCPUs since boot, summed over vCPUs (0 where /proc/stat has no
// steal column). The repetition lines print it so that a slow
// repetition can be told apart from slow code.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// provenance tags a result with what it was measured on.
type provenance struct {
	Kernel     string `json:"kernel"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Workers    int    `json:"workers"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Seed       uint64 `json:"seed"`
	Commit     string `json:"commit"`
}

func (p provenance) String() string {
	return fmt.Sprintf("kernel=%s goarch=%s gomaxprocs=%d nproc=%d workers=%d cpu=%q go=%s seed=%d commit=%s",
		p.Kernel, p.GOARCH, p.GOMAXPROCS, p.NProc, p.Workers, p.CPU, p.Go, p.Seed, p.Commit)
}

func hostTags(ctx context.Context, seed uint64) provenance {
	p := provenance{
		Kernel: string(kernels.Active()), GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Workers: benchWorkers,
		CPU: "unknown", Go: runtime.Version(), Seed: seed, Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Only a checkout that is itself a git work tree has a commit; git
	// would otherwise report an enclosing repository's.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			p.Commit = strings.TrimSpace(string(out))
		}
	}
	return p
}
