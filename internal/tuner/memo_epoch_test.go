package tuner

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tunio/internal/params"
)

// TestMemoEpochInvalidation pins the drift-epoch keying contract: lookups
// within one epoch hit, lookups across an epoch boundary miss (a re-tuned
// regime never reuses a stale regime's scores), and re-installing an epoch
// reaches its retained entries — the cache keys on epoch, it never flushes.
func TestMemoEpochInvalidation(t *testing.T) {
	inner := &seededSynthetic{}
	memo := NewMemo(serial(inner.Evaluate))
	memo.SetKernelKey("trace:k")
	memo.SetEpoch(100.0)

	def := params.DefaultAssignment(params.Space())
	batch := []*params.Assignment{def}
	eval := func() {
		t.Helper()
		if _, err := memo.EvaluateBatch(context.Background(), batch, 1); err != nil {
			t.Fatal(err)
		}
	}

	eval()
	if got := atomic.LoadInt64(&inner.calls); got != 1 {
		t.Fatalf("first lookup simulated %d times, want 1", got)
	}
	eval()
	if got := atomic.LoadInt64(&inner.calls); got != 1 {
		t.Fatalf("same-epoch lookup re-simulated (calls = %d, want 1)", got)
	}
	memo.SetEpoch(100.0) // same epoch: must not invalidate
	eval()
	if got := atomic.LoadInt64(&inner.calls); got != 1 {
		t.Fatalf("re-installing the same epoch invalidated the cache (calls = %d)", got)
	}

	memo.SetEpoch(250.0) // epoch boundary: the re-tuned regime
	eval()
	if got := atomic.LoadInt64(&inner.calls); got != 2 {
		t.Fatalf("epoch-crossing lookup served a stale-regime score (calls = %d, want 2)", got)
	}
	eval()
	if got := atomic.LoadInt64(&inner.calls); got != 2 {
		t.Fatalf("second lookup in the new epoch missed (calls = %d, want 2)", got)
	}

	// Entries are keyed, not flushed: the old epoch's measurement is still
	// reachable under its own key.
	memo.SetEpoch(100.0)
	eval()
	if got := atomic.LoadInt64(&inner.calls); got != 2 {
		t.Fatalf("retained epoch entry was lost (calls = %d, want 2)", got)
	}

	hits, misses := memo.CacheStats()
	if hits != 4 || misses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 4/2", hits, misses)
	}
}

// TestMemoWarmPathLockFree asserts the repeated-genome fast path directly:
// a batch served entirely from the published snapshot acquires no mutex.
// Checked with the runtime mutex profiler under 8 hammering goroutines —
// any contended lock inside this package's frames fails the test.
func TestMemoWarmPathLockFree(t *testing.T) {
	memo := NewMemo(serial((&seededSynthetic{}).Evaluate))
	memo.SetKernelKey("trace:k")
	def := params.DefaultAssignment(params.Space())
	batch := []*params.Assignment{def, def}
	if _, err := memo.EvaluateBatch(context.Background(), batch, 1); err != nil {
		t.Fatal(err)
	}

	prev := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prev)
	maxprocs := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(maxprocs)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if _, err := memo.EvaluateBatch(context.Background(), batch, 1); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()

	n, _ := runtime.MutexProfile(nil)
	recs := make([]runtime.BlockProfileRecord, n+64)
	n, ok := runtime.MutexProfile(recs)
	if !ok {
		t.Fatal("mutex profile grew while reading")
	}
	for _, rec := range recs[:n] {
		frames := runtime.CallersFrames(rec.Stack())
		for {
			f, more := frames.Next()
			if strings.Contains(f.Function, "tunio/internal/tuner.") {
				t.Fatalf("warm memo batch contended a mutex at %s (%s:%d)", f.Function, f.File, f.Line)
			}
			if !more {
				break
			}
		}
	}
}
