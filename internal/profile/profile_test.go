package profile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesBothProfiles checks that stop writes non-empty CPU and
// heap profiles and may be called twice.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	stop()
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

// TestStartBadCPUPath checks that an uncreatable -cpuprofile file is an
// error, and that no profile is left running.
func TestStartBadCPUPath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "missing", "cpu.pprof"), ""); err == nil {
		t.Fatal("Start accepted a CPU profile path in a missing directory")
	}
	stop, err := Start(filepath.Join(t.TempDir(), "cpu.pprof"), "")
	if err != nil {
		t.Fatalf("a failed Start left the CPU profiler running: %v", err)
	}
	stop()
}
