// Package profile writes the pprof profiles behind the commands'
// -cpuprofile and -memprofile flags. Only commands import it: no cell
// code can reach it, so profiling never touches a result.
package profile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Start starts the -cpuprofile CPU profile and returns the function
// that stops it and writes the -memprofile heap profile (each only when
// its path is set). The stop function is idempotent.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpu != nil {
				pprof.StopCPUProfile()
				if err := cpu.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
				}
			}
			if memPath != "" {
				if err := writeHeapProfile(memPath); err != nil {
					fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
				}
			}
		})
	}, nil
}

// writeHeapProfile writes the heap profile: every allocation sampled
// since the process started, and the objects live after a fresh GC.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
