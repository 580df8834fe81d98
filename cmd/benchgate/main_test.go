package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: fp8quant/internal/tensor/kernels
BenchmarkMatmulT/16x256x256-8   	   10000	    107024 ns/op	2755.58 MB/s	      64 B/op	       2 allocs/op
BenchmarkBatchEncode-8          	     270	   4437631 ns/op	 945.17 MB/s	       0 B/op	       0 allocs/op
BenchmarkNoThroughput-8         	     100	      5000 ns/op	     128 B/op	       3 allocs/op
PASS
ok  	fp8quant/internal/tensor/kernels	9.157s
`

func intp(v int64) *int64 { return &v }

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d results, want 3: %v", len(got), got)
	}
	r := got[0]
	if r.Name != "BenchmarkMatmulT/16x256x256" {
		t.Errorf("name = %q (worker-count suffix must be stripped)", r.Name)
	}
	if r.NsPerOp != 107024 {
		t.Errorf("ns/op = %v, want 107024", r.NsPerOp)
	}
	if r.MBPerS == nil || *r.MBPerS != 2755.58 {
		t.Errorf("MB/s = %v, want 2755.58", r.MBPerS)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 64 || r.AllocsPerOp == nil || *r.AllocsPerOp != 2 {
		t.Errorf("benchmem counters = %v/%v, want 64/2", r.BytesPerOp, r.AllocsPerOp)
	}
	if got[2].MBPerS != nil {
		t.Errorf("benchmark without MB/s parsed throughput %v", *got[2].MBPerS)
	}
}

// TestParseBenchNoNsPerOp: a benchmark that reports ns/op as 0 prints
// no ns/op, so its line has the iteration count and the -benchmem
// counters only; it parses, and its recorded result carries no ns/op.
func TestParseBenchNoNsPerOp(t *testing.T) {
	const line = "BenchmarkFleetCell-8 \t     100\t   12337 B/op\t     166 allocs/op\n"
	got, err := parseBench(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("parsed %d results, want 1: %v", len(got), got)
	}
	r := got[0]
	if r.Name != "BenchmarkFleetCell" || r.NsPerOp != 0 || r.MBPerS != nil {
		t.Errorf("result = %+v, want BenchmarkFleetCell with no ns/op or MB/s", r)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 12337 || r.AllocsPerOp == nil || *r.AllocsPerOp != 166 {
		t.Errorf("benchmem counters = %v/%v, want 12337/166", r.BytesPerOp, r.AllocsPerOp)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "ns_per_op") {
		t.Errorf("recorded %s, want no ns_per_op", b)
	}
}

func TestReadEntriesMissingFile(t *testing.T) {
	entries, err := readEntries(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || entries != nil {
		t.Fatalf("missing file: entries=%v err=%v, want nil/nil", entries, err)
	}
}

func TestGate(t *testing.T) {
	baseline := []Entry{
		{Date: "legacy", Results: []Result{{Name: "BenchmarkA", NsPerOp: 1}}},
		{Date: "2026-08-08", Results: []Result{
			{Name: "BenchmarkA", NsPerOp: 100, BytesPerOp: intp(100000), AllocsPerOp: intp(10)},
			{Name: "BenchmarkB", NsPerOp: 100, BytesPerOp: intp(0), AllocsPerOp: intp(0)},
		}},
	}
	cases := []struct {
		name     string
		cur      []Result
		failures int
	}{
		{"identical", []Result{
			{Name: "BenchmarkA", BytesPerOp: intp(100000), AllocsPerOp: intp(10)},
			{Name: "BenchmarkB", BytesPerOp: intp(0), AllocsPerOp: intp(0)},
		}, 0},
		{"within tolerance", []Result{
			{Name: "BenchmarkA", BytesPerOp: intp(125000), AllocsPerOp: intp(11)},
			{Name: "BenchmarkB", BytesPerOp: intp(4096), AllocsPerOp: intp(2)},
		}, 0},
		{"wall clock ignored", []Result{
			{Name: "BenchmarkA", NsPerOp: 1e9, BytesPerOp: intp(100000), AllocsPerOp: intp(10)},
		}, 0},
		{"alloc regression", []Result{
			{Name: "BenchmarkA", BytesPerOp: intp(100000), AllocsPerOp: intp(13)},
		}, 1},
		{"bytes regression", []Result{
			{Name: "BenchmarkA", BytesPerOp: intp(125001), AllocsPerOp: intp(10)},
			{Name: "BenchmarkB", BytesPerOp: intp(4097), AllocsPerOp: intp(0)},
		}, 2},
		{"new benchmark skipped", []Result{
			{Name: "BenchmarkNew", BytesPerOp: intp(1 << 30), AllocsPerOp: intp(1 << 20)},
		}, 0},
	}
	for _, tc := range cases {
		var sb strings.Builder
		if got := gate(baseline, tc.cur, "sse", &sb); got != tc.failures {
			t.Errorf("%s: %d failures, want %d\n%s", tc.name, got, tc.failures, sb.String())
		}
	}
}

func TestGateVariantSelection(t *testing.T) {
	entries := []Entry{
		// Legacy entry with no recorded variant: compatible with any tier.
		{Date: "2026-08-01", Results: []Result{
			{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: intp(3)},
		}},
		// Later avx2 entry must be skipped when gating an sse run.
		{Date: "2026-08-08", KernelVariant: "avx2", Results: []Result{
			{Name: "BenchmarkA", NsPerOp: 50, AllocsPerOp: intp(0)},
		}},
	}
	cur := []Result{{Name: "BenchmarkA", AllocsPerOp: intp(3)}}

	var sb strings.Builder
	if got := gate(entries, cur, "sse", &sb); got != 0 {
		t.Errorf("sse gate = %d failures, want 0 (avx2 entry must be skipped)\n%s", got, sb.String())
	}
	if !strings.Contains(sb.String(), "2026-08-01") {
		t.Errorf("sse gate should use the variant-less 2026-08-01 baseline, got:\n%s", sb.String())
	}

	sb.Reset()
	if got := gate(entries, cur, "avx2", &sb); got != 1 {
		t.Errorf("avx2 gate = %d failures, want 1 (3 allocs vs the avx2 entry's 0)\n%s", got, sb.String())
	}

	// No compatible baseline at all: vacuous pass naming the variant.
	sb.Reset()
	only := []Entry{{Date: "2026-08-08", KernelVariant: "avx2", Results: []Result{
		{Name: "BenchmarkA", AllocsPerOp: intp(0)},
	}}}
	if got := gate(only, cur, "generic", &sb); got != 0 {
		t.Errorf("generic gate = %d failures, want 0 (vacuous)", got)
	}
	if !strings.Contains(sb.String(), `"generic"`) {
		t.Errorf("vacuous-pass message should name the variant, got %q", sb.String())
	}
}

func TestSpark(t *testing.T) {
	cases := []struct {
		name string
		vals []float64
		want string
	}{
		{"monotone speedup", []float64{800, 400, 100}, "#~."},
		{"flat", []float64{100, 100, 100}, "---"},
		{"absent entries blank", []float64{0, 200, 100}, " #."},
		{"single point", []float64{42}, "-"},
	}
	for _, tc := range cases {
		if got := spark(tc.vals); got != tc.want {
			t.Errorf("%s: spark(%v) = %q, want %q", tc.name, tc.vals, got, tc.want)
		}
	}
}

func TestTrend(t *testing.T) {
	entries := []Entry{
		{Date: "legacy", Results: []Result{{Name: "BenchmarkA", NsPerOp: 200}, {Name: "BenchmarkDisk", NsPerOp: 300}}},
		{Date: "2026-08-08", Results: []Result{
			{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: intp(0)},
			{Name: "BenchmarkNew", NsPerOp: 50},
			{Name: "BenchmarkDisk", AllocsPerOp: intp(25)},
		}},
	}
	var sb strings.Builder
	trend(entries, "bench.json", &sb)
	out := sb.String()
	for _, want := range []string{
		"2 entries, legacy → 2026-08-08",
		"| benchmark | first ns/op | latest ns/op | change | allocs/op | trend |",
		"| BenchmarkA | 200 | 100 | -50.0% | 0 | `#.` |",
		// Absent in the first entry: first ns/op falls back to the
		// earliest recorded value, sparkline leads with a blank.
		"| BenchmarkNew | 50 | 50 | +0.0% | - | ` -` |",
		// No ns/op in the latest entry: no timing, earlier ones
		// included.
		"| BenchmarkDisk | - | - | n/a | 25 | |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trend output missing %q\ngot:\n%s", want, out)
		}
	}
}

func TestTrendEmptyHistory(t *testing.T) {
	var sb strings.Builder
	trend(nil, "bench.json", &sb)
	if !strings.Contains(sb.String(), "nothing to trend") {
		t.Errorf("empty-history trend output = %q", sb.String())
	}
}

func TestGateNoAllocBaseline(t *testing.T) {
	entries := []Entry{{Date: "legacy", Results: []Result{{Name: "BenchmarkA", NsPerOp: 1}}}}
	var sb strings.Builder
	if got := gate(entries, []Result{{Name: "BenchmarkA", AllocsPerOp: intp(99)}}, "sse", &sb); got != 0 {
		t.Errorf("gate without alloc baseline = %d failures, want 0 (vacuous pass)", got)
	}
	if !strings.Contains(sb.String(), "nothing to gate") {
		t.Errorf("output %q should state the gate is vacuous", sb.String())
	}
}
