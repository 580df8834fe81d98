package harness

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachCellCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		SetWorkers(workers)
		const n = 1000
		var hits [n]int32
		forEachCell(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times", workers, i, h)
			}
		}
	}
	SetWorkers(0)
}

func TestCollectCellsDeterministicOrder(t *testing.T) {
	want := make([]int, 500)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 3, 16} {
		SetWorkers(workers)
		got := make([]int, len(want))
		forEachCell(len(got), func(i int) { got[i] = i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
	SetWorkers(0)
}

func TestSetWorkersBounds(t *testing.T) {
	SetWorkers(3)
	if Workers() != 3 {
		t.Errorf("Workers() = %d after SetWorkers(3)", Workers())
	}
	// The pool must never run more cells concurrently than configured.
	var cur, peak int32
	forEachCell(64, func(i int) {
		c := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		for j := 0; j < 10000; j++ {
			_ = j * j
		}
		atomic.AddInt32(&cur, -1)
	})
	if peak > 3 {
		t.Errorf("observed %d concurrent cells with 3 workers", peak)
	}
	SetWorkers(0)
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers() = %d, want GOMAXPROCS default", Workers())
	}
	SetWorkers(-5)
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("negative SetWorkers should mean default, got %d", Workers())
	}
}

func TestForEachCellEmpty(t *testing.T) {
	ran := false
	forEachCell(0, func(i int) { ran = true })
	if ran {
		t.Error("forEachCell(0) must not invoke the cell")
	}
}
