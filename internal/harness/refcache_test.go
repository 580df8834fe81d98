package harness

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
)

// cachedRefs counts the cached references.
func cachedRefs() int {
	n := 0
	refCache.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// TestCachedRefComputesOnce races callers of one key on a cold cache
// (run it under -race): one computation, and every caller gets its value.
func TestCachedRefComputesOnce(t *testing.T) {
	withCleanCache(t)
	var computed atomic.Int32
	got := make([]any, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = cachedRef("once", func() any {
				computed.Add(1)
				return []int{1, 2, 3}
			})
		}(i)
	}
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Fatalf("%d callers computed the reference %d times, want 1", len(got), n)
	}
	for i, v := range got[1:] {
		if &v.([]int)[0] != &got[0].([]int)[0] {
			t.Errorf("caller %d got another computation's value", i+1)
		}
	}
}

// TestPanickedReferenceIsRecomputed checks that a reference computation
// that panics caches nothing: the model's next cell computes its
// reference from its own network instead of reading an empty one.
func TestPanickedReferenceIsRecomputed(t *testing.T) {
	const name = "cifar_resnet20"
	withCleanCache(t)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a reference computed from a nil network did not panic")
			}
		}()
		modelRef(name, nil)
	}()
	if n := cachedRefs(); n != 0 {
		t.Fatalf("a panicked computation left %d cached references", n)
	}
	net, err := models.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	got := modelRef(name, net)
	if len(got.Keep) == 0 {
		t.Fatal("the reference after a panicked computation keeps no sample")
	}
	if want := evalx.ComputeReference(net); !reflect.DeepEqual(got, want) {
		t.Error("the reference after a panicked computation differs from a fresh one")
	}
}
