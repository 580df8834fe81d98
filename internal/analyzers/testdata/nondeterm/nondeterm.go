// Fixture for the nondeterm check: banned calls are reported when
// reachable from a RunCell implementation or a registerGrid cell
// argument, and stay silent off those paths.
package nondetermfix

import (
	"math/rand"
	"os"
	"runtime"
	"time"
)

type Cell struct{}

// RunCell is a contract root by name.
func (Cell) RunCell() float64 {
	now := time.Now()     // want nondeterm "time.Now"
	_ = os.Getenv("HOME") // want nondeterm "os.Getenv"
	_ = seededOK()
	return helper() + float64(now.Nanosecond())
}

// helper is reachable from RunCell: the finding carries the chain.
func helper() float64 {
	return rand.Float64() // want nondeterm "unseeded global RNG"
}

// Negative: explicitly seeded sources are deterministic.
func seededOK() float64 {
	r := rand.New(rand.NewSource(1))
	return r.Float64()
}

// Negative: not on any contract path.
func offPath() time.Time {
	return time.Now()
}

// registerGrid mimics the harness registration idiom: the 4th argument
// is a cell root.
func registerGrid(id, title string, spec int, cell func() int, render func()) {
	_ = cell
	_ = render
}

func register() {
	registerGrid("g", "t", 0, gridCell, nil)
	registerGrid("c", "t", 0, closureCell(), nil)
}

// closureCell returns the cell runner as a literal: a root as well.
func closureCell() func() int {
	return func() int {
		return time.Now().Second() // want nondeterm "time.Now"
	}
}

func gridCell() int {
	return runtime.NumCPU() // want nondeterm "NumCPU"
}

type Cell2 struct{}

// Ignored: a documented exemption suppresses the finding.
func (Cell2) RunCell() int {
	//fp8vet:ignore nondeterm fixture exemption: value never persisted, parallelism degree only
	return runtime.GOMAXPROCS(0)
}
