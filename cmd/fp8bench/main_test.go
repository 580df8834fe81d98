package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fp8quant/internal/evalx"
	"fp8quant/internal/harness"
	"fp8quant/internal/resultstore"
)

// TestProfileFlags runs fp8bench (this test binary re-entering main)
// over a one-model table3 sub-grid and checks that -cpuprofile and
// -memprofile both leave non-empty profiles behind.
func TestProfileFlags(t *testing.T) {
	if args := os.Getenv("FP8BENCH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"fp8bench"}, strings.Split(args, "\n")...)
		main()
		return
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	args := []string{"-exp", "table3", "-filter", "model=resnet50", "-no-cache",
		"-workers", "1", "-cpuprofile", cpu, "-memprofile", mem}
	cmd := exec.Command(os.Args[0], "-test.run=^TestProfileFlags$")
	cmd.Env = append(os.Environ(), "FP8BENCH_TEST_ARGS="+strings.Join(args, "\n"))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fp8bench %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(p))
		}
	}
}

// TestPrintCoverageCountsIncompleteGrids pins the -coverage exit
// contract's source of truth: the incomplete-grid count that main
// turns into a nonzero exit. An empty store reports the grid
// incomplete; a store holding every scheduled cell reports zero; a nil
// store is a hard error.
func TestPrintCoverageCountsIncompleteGrids(t *testing.T) {
	id, spec := smallestGrid(t)
	silenceStdout(t)

	s, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	incomplete, err := printCoverage(s, []string{id})
	if err != nil || incomplete != 1 {
		t.Fatalf("empty store: incomplete = %d, %v; want 1 (drives the nonzero exit)", incomplete, err)
	}

	// Fill every scheduled cell (coverage checks presence and validity,
	// not values) and the grid reads complete.
	fillCells(t, s, spec)
	incomplete, err = printCoverage(s, []string{id})
	if err != nil || incomplete != 0 {
		t.Fatalf("full store: incomplete = %d, %v; want 0", incomplete, err)
	}

	if _, err := printCoverage(nil, []string{id}); err == nil {
		t.Fatal("nil store must be a hard -coverage error")
	}
}

// TestLegacyManifestStillWorks pins that a manifest written by an older
// store, which carries a provenance array this version no longer
// declares, keeps working: LoadManifest accepts it, its schedule
// matches the spec's, a fully warm RunGrid leaves its bytes untouched,
// fsck calls the store healthy and -coverage counts the grid complete.
func TestLegacyManifestStillWorks(t *testing.T) {
	id, spec := smallestGrid(t)
	e, _ := harness.Get(id)
	silenceStdout(t)
	s, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fillCells(t, s, spec)

	// The older layout: the retired provenance array between the cells
	// and the kernel variants, written by the same envelope encoder.
	if err := s.SaveManifest(harness.ManifestFor(spec)); err != nil {
		t.Fatal(err)
	}
	path := s.ManifestPath(spec.ID, spec.Seed)
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(cur, []byte("]}}")) {
		t.Fatalf("unexpected manifest layout: %s", cur)
	}
	legacy := append(cur[:len(cur)-2:len(cur)-2],
		`,"shards":[{"index":0,"count":3},{"index":2,"count":3}],"kernel_variants":["sse"]}}`...)
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	m, ok := s.LoadManifest(spec.ID, spec.Seed)
	if !ok {
		t.Fatal("LoadManifest rejected the legacy manifest")
	}
	if !m.SameSchedule(harness.ManifestFor(spec)) {
		t.Fatal("legacy manifest's schedule does not match the spec's")
	}
	if len(m.KernelVariants) != 1 || m.KernelVariants[0] != "sse" {
		t.Fatalf("legacy manifest variants = %v, want [sse]", m.KernelVariants)
	}

	harness.SetStore(s)
	t.Cleanup(func() { harness.SetStore(nil); harness.ClearMemo() })
	harness.ClearMemo()
	before := s.Stats()
	if _, _, err := harness.RunGrid(e, nil); err != nil {
		t.Fatal(err)
	}
	if d := s.Stats(); d.Misses != before.Misses || d.Writes != before.Writes {
		t.Fatalf("warm RunGrid store traffic = %+v after %+v, want hits only", d, before)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, legacy) {
		t.Fatalf("warm RunGrid rewrote the legacy manifest (err %v)", err)
	}

	rep, err := s.Fsck(resultstore.FsckOptions{})
	if err != nil || !rep.Healthy() {
		t.Fatalf("fsck on the legacy store = %+v, %v; want healthy", rep, err)
	}
	if incomplete, err := printCoverage(s, []string{id}); err != nil || incomplete != 0 {
		t.Fatalf("coverage on the legacy store: incomplete = %d, %v; want 0", incomplete, err)
	}
}

// smallestGrid returns the registered grid experiment with the fewest
// cells, which keeps fill loops cheap.
func smallestGrid(t *testing.T) (string, harness.GridSpec) {
	t.Helper()
	var id string
	smallest := 1 << 30
	for _, eid := range harness.IDs() {
		if e, ok := harness.Get(eid); ok {
			if n := e.Spec().NumCells(); n > 0 && n < smallest {
				smallest, id = n, eid
			}
		}
	}
	if id == "" {
		t.Fatal("no grid experiments registered")
	}
	e, _ := harness.Get(id)
	return id, e.Spec()
}

// fillCells stores a placeholder result for every cell of spec
// (coverage and warm runs check presence and validity, not values).
func fillCells(t *testing.T, s *resultstore.Store, spec harness.GridSpec) {
	t.Helper()
	for i := 0; i < spec.NumCells(); i++ {
		if err := s.SaveCell(spec.CellKey(spec.CellAt(i)), evalx.Result{QAcc: 1, BaseAcc: 1}); err != nil {
			t.Fatal(err)
		}
	}
}

// silenceStdout discards what printCoverage writes for the rest of the
// test.
func silenceStdout(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() { os.Stdout = old; devnull.Close() })
}

// TestVMHWM pins the peak-RSS footer's parse of /proc/self/status: the
// VmHWM value in kB, and no value where the line is absent or garbled.
func TestVMHWM(t *testing.T) {
	for _, c := range []struct {
		status string
		kb     int64
		ok     bool
	}{
		{"Name:\tfp8bench\nVmPeak:\t 1300000 kB\nVmHWM:\t   22630 kB\nVmRSS:\t   21000 kB\n", 22630, true},
		{"Name:\tfp8bench\nVmRSS:\t   21000 kB\n", 0, false},
		{"VmHWM:\t  n/a kB\n", 0, false},
	} {
		if kb, ok := vmHWM(c.status); kb != c.kb || ok != c.ok {
			t.Errorf("vmHWM(%q) = %d, %v; want %d, %v", c.status, kb, ok, c.kb, c.ok)
		}
	}
}
