// Command benchgate maintains BENCH_kernels.json, the kernel-layer
// perf trajectory, and gates CI on the deterministic half of it.
//
// Usage:
//
//	go test -bench ... -benchmem | benchgate -append [-date D] [-benchtime T]
//	go test -bench ... -benchmem | benchgate -gate
//	benchgate -trend
//
// -trend renders the recorded history as a markdown table with an
// ASCII sparkline per benchmark (ns/op across entries, plus the
// first→latest allocs/op movement), reading only the JSON file — no
// benchmark run required. A benchmark whose latest entry records no
// ns/op shows no timing.
//
// -append parses `go test -bench -benchmem` output and appends one
// dated entry to the JSON history. The file accumulates one entry per recorded run, so the perf trajectory
// across PRs stays diffable in-repo.
//
// -gate compares the current run's allocs/op and bytes/op against the
// most recent entry that recorded them, and exits nonzero on
// regression. Wall-clock (ns/op, MB/s) is deliberately not gated: on
// shared CI VMs it flaps far outside any usable tolerance, while
// allocation counts are deterministic properties of the code. See
// allowed() for the per-counter tolerances.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"

	"fp8quant/internal/tensor/kernels"
)

// Result is one benchmark's measurements. MBPerS is a pointer so
// benchmarks that report no throughput serialize as null (the shape
// the history's "legacy" entry records); the -benchmem counters are omitted
// when absent. NsPerOp is omitted when zero: a benchmark whose time
// tracks the disk rather than the code reports ns/op as 0, which
// testing does not print.
type Result struct {
	Name        string   `json:"name"`
	NsPerOp     float64  `json:"ns_per_op,omitempty"`
	MBPerS      *float64 `json:"mb_per_s"`
	BytesPerOp  *int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64   `json:"allocs_per_op,omitempty"`
}

// Entry is one recorded benchmark run.
type Entry struct {
	Date      string `json:"date"`
	Benchtime string `json:"benchtime,omitempty"`
	// KernelVariant is the GEMM tier the recording host dispatched
	// (avx2, sse, generic). -gate only compares entries recorded on the
	// same tier: allocation counts are deterministic per code path, and
	// the avx2 tier's 8-row blocking is a different code path. Entries
	// predating the field (empty) are compatible with any tier.
	KernelVariant string   `json:"kernel_variant,omitempty"`
	Results       []Result `json:"results"`
}

func main() {
	appendMode := flag.Bool("append", false, "append a dated entry to the JSON history")
	gateMode := flag.Bool("gate", false, "gate allocs/op and bytes/op against the latest recorded entry")
	trendMode := flag.Bool("trend", false, "render the recorded history as a markdown trend report")
	jsonPath := flag.String("json", "BENCH_kernels.json", "path of the benchmark history file")
	date := flag.String("date", "", "entry date for -append (default: today, UTC)")
	benchtime := flag.String("benchtime", "", "benchtime label recorded with the entry")
	variant := flag.String("variant", string(kernels.Active()),
		"kernel variant the benchmarks ran on: recorded by -append, matched by -gate (default: this host's dispatch)")
	flag.Parse()

	modes := 0
	for _, m := range []bool{*appendMode, *gateMode, *trendMode} {
		if m {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "benchgate: exactly one of -append, -gate or -trend is required")
		os.Exit(2)
	}

	if *trendMode {
		entries, err := readEntries(*jsonPath)
		if err != nil {
			fatal(err)
		}
		trend(entries, *jsonPath, os.Stdout)
		return
	}

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	cur, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	if len(cur) == 0 {
		fatal(fmt.Errorf("no benchmark lines in input (need `go test -bench` output)"))
	}

	entries, err := readEntries(*jsonPath)
	if err != nil {
		fatal(err)
	}

	if *appendMode {
		d := *date
		if d == "" {
			d = time.Now().UTC().Format("2006-01-02")
		}
		entries = append(entries, Entry{Date: d, Benchtime: *benchtime, KernelVariant: *variant, Results: cur})
		buf, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: appended entry %s (%d benchmarks) to %s\n", d, len(cur), *jsonPath)
		return
	}

	if failures := gate(entries, cur, *variant, os.Stdout); failures > 0 {
		fmt.Printf("\nbenchgate: %d allocation regression(s) against the recorded baseline\n", failures)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
	os.Exit(2)
}

var benchNameRe = regexp.MustCompile(`-\d+$`)

// parseBench extracts per-benchmark measurements from `go test -bench`
// output. Value/unit pairs follow the iteration count; unknown units
// are skipped so future testing-package additions stay harmless.
func parseBench(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		res := Result{Name: benchNameRe.ReplaceAllString(f[0], "")}
		for i := 2; i+1 < len(f); i += 2 {
			val, unit := f[i], f[i+1]
			switch unit {
			case "ns/op":
				res.NsPerOp, _ = strconv.ParseFloat(val, 64)
			case "MB/s":
				if v, err := strconv.ParseFloat(val, 64); err == nil {
					res.MBPerS = &v
				}
			case "B/op":
				if v, err := strconv.ParseInt(val, 10, 64); err == nil {
					res.BytesPerOp = &v
				}
			case "allocs/op":
				if v, err := strconv.ParseInt(val, 10, 64); err == nil {
					res.AllocsPerOp = &v
				}
			}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// readEntries loads the history file. A missing file is an empty
// history.
func readEntries(path string) ([]Entry, error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var entries []Entry
	if err := json.Unmarshal(buf, &entries); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return entries, nil
}

// gate compares the current run against the latest entry carrying
// -benchmem counters and returns the number of regressions. Only
// benchmarks present in both runs participate; wall-clock is not
// compared. Entries recorded on a different kernel variant are
// skipped — the avx2 tier's 8-row blocking is a different code path
// with its own allocation profile — while legacy entries with no
// recorded variant match any tier.
func gate(entries []Entry, cur []Result, variant string, w io.Writer) int {
	var base map[string]Result
	baseDate := ""
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].KernelVariant != "" && entries[i].KernelVariant != variant {
			continue
		}
		for _, r := range entries[i].Results {
			if r.AllocsPerOp != nil {
				base = map[string]Result{}
				for _, br := range entries[i].Results {
					base[br.Name] = br
				}
				baseDate = entries[i].Date
				break
			}
		}
		if base != nil {
			break
		}
	}
	if base == nil {
		fmt.Fprintf(w, "benchgate: no recorded entry for variant %q carries allocs/op; nothing to gate against\n", variant)
		return 0
	}

	fmt.Fprintf(w, "benchgate: gating against entry %s\n", baseDate)
	fmt.Fprintf(w, "%-44s %22s %22s  %s\n", "benchmark", "allocs/op (base→cur)", "bytes/op (base→cur)", "status")
	failures, compared := 0, 0
	for _, c := range cur {
		b, ok := base[c.Name]
		if !ok || b.AllocsPerOp == nil || c.AllocsPerOp == nil {
			continue
		}
		compared++
		pass := *c.AllocsPerOp <= allowed(*b.AllocsPerOp, 10, 2)
		if b.BytesPerOp != nil && c.BytesPerOp != nil && *c.BytesPerOp > allowed(*b.BytesPerOp, 25, 4096) {
			pass = false
		}
		status := "ok"
		if !pass {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "%-44s %22s %22s  %s\n", c.Name,
			pairString(b.AllocsPerOp, c.AllocsPerOp),
			pairString(b.BytesPerOp, c.BytesPerOp), status)
	}
	if compared == 0 {
		fmt.Fprintln(w, "benchgate: no benchmark overlaps the recorded baseline; nothing gated")
	}
	return failures
}

// sparkChars are the ASCII levels of the trend sparkline, slowest
// (highest ns/op) to fastest.
const sparkChars = "#%*=~-,."

// spark maps a ns/op series to one ASCII character per entry, scaled
// to the series' own min..max (a flat series renders as all '-').
// Entries where the benchmark is absent render as a space.
func spark(vals []float64) string {
	mn, mx := 0.0, 0.0
	first := true
	for _, v := range vals {
		if v <= 0 {
			continue
		}
		if first || v < mn {
			mn = v
		}
		if first || v > mx {
			mx = v
		}
		first = false
	}
	var b strings.Builder
	for _, v := range vals {
		switch {
		case v <= 0:
			b.WriteByte(' ')
		case mx == mn:
			b.WriteByte('-')
		default:
			lvl := int((mx - v) / (mx - mn) * float64(len(sparkChars)-1))
			b.WriteByte(sparkChars[lvl])
		}
	}
	return b.String()
}

// trend renders the recorded history as a markdown table: one row per
// benchmark (in latest-entry order), first and latest ns/op, the
// percentage change between them, the latest allocs/op, and an ASCII
// sparkline over every dated entry. A benchmark whose latest entry
// records no ns/op gets "-" for its timing and no sparkline: its
// earlier ns/op measured the disk, not the code.
func trend(entries []Entry, path string, w io.Writer) {
	if len(entries) == 0 {
		fmt.Fprintf(w, "benchgate: %s holds no entries; nothing to trend\n", path)
		return
	}
	fmt.Fprintf(w, "## Kernel benchmark trend — %s\n\n", path)
	fmt.Fprintf(w, "%d entries, %s → %s. Sparkline: `%c` slowest … `%c` fastest, per-benchmark scale.\n\n",
		len(entries), entries[0].Date, entries[len(entries)-1].Date,
		sparkChars[0], sparkChars[len(sparkChars)-1])
	fmt.Fprintln(w, "| benchmark | first ns/op | latest ns/op | change | allocs/op | trend |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---|")
	latest := entries[len(entries)-1]
	for _, r := range latest.Results {
		series := make([]float64, len(entries))
		for i, e := range entries {
			for _, er := range e.Results {
				if er.Name == r.Name {
					series[i] = er.NsPerOp
					break
				}
			}
		}
		firstNs := 0.0
		for _, v := range series {
			if v > 0 {
				firstNs = v
				break
			}
		}
		change := "n/a"
		if firstNs > 0 && r.NsPerOp > 0 {
			change = fmt.Sprintf("%+.1f%%", (r.NsPerOp-firstNs)/firstNs*100)
		}
		allocs := "-"
		if r.AllocsPerOp != nil {
			allocs = strconv.FormatInt(*r.AllocsPerOp, 10)
		}
		if r.NsPerOp <= 0 {
			fmt.Fprintf(w, "| %s | - | - | n/a | %s | |\n", r.Name, allocs)
			continue
		}
		fmt.Fprintf(w, "| %s | %.0f | %.0f | %s | %s | `%s` |\n",
			r.Name, firstNs, r.NsPerOp, change, allocs, spark(series))
	}
}

// allowed is the regression ceiling: baseline + pct% with an absolute
// slack floor. Allocation counts get a tight band (10%, +2): they are
// a deterministic property of the code for a given b.N. Bytes/op gets
// a wider one (25%, +4096): a one-time allocation inside a timed loop
// amortizes over the iteration count, which differs between the
// recorded benchtime and the gate's fixed-count run.
func allowed(baseline, pct, slack int64) int64 {
	tol := baseline * pct / 100
	if tol < slack {
		tol = slack
	}
	return baseline + tol
}

func pairString(base, cur *int64) string {
	f := func(p *int64) string {
		if p == nil {
			return "-"
		}
		return strconv.FormatInt(*p, 10)
	}
	return f(base) + "→" + f(cur)
}
