package replay

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// concurrentConfigs is a spread of assignments with distinct cache keys
// (plan- and wire-stage footprints both vary).
func concurrentConfigs(t *testing.T) []*params.Assignment {
	t.Helper()
	return []*params.Assignment{
		params.DefaultAssignment(params.Space()),
		mutate(t, map[string]int{params.Alignment: 5, params.SieveBufSize: 6}),
		mutate(t, map[string]int{params.CollectiveWrite: 1, params.CBNodes: 3, params.CBBufferSize: 1}),
		mutate(t, map[string]int{params.StripingFactor: 6, params.StripingUnit: 0}),
		mutate(t, map[string]int{params.CollectiveWrite: 1, params.Alignment: 3, params.ChunkCache: 0}),
		mutate(t, map[string]int{params.MDCConfig: 0, params.MetaBlockSize: 7}),
	}
}

// TestSharedStageCacheConcurrentViews drives 8 concurrent CacheViews over
// one shared cache — every goroutine replaying every configuration, so the
// same keys are fetched cold by one goroutine and warm by the rest — and
// proves each replayed run is bit-identical (clock and darshan counters) to
// a solo single-view baseline. Runs under -race in CI.
func TestSharedStageCacheConcurrentViews(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	tr := recordTrace(t, "macsio", 3)
	configs := concurrentConfigs(t)

	// Solo baseline: a private cache, one view, serial replays.
	type runKey struct {
		cfg  int
		seed int64
	}
	seeds := []int64{1, 42}
	baseline := make(map[runKey]float64)
	{
		solo := NewSharedStageCache()
		solo.Register("trace:k", tr)
		view := solo.View("trace:k")
		var rt Runtime
		for ci, a := range configs {
			s := a.Settings()
			wp, err := view.WireFor(a, s, c.ProcsPerNode)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range seeds {
				st, err := workload.BuildStack(c, s, seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := rt.Exec(wp, st); err != nil {
					t.Fatal(err)
				}
				baseline[runKey{ci, seed}] = st.Sim.Now()
			}
		}
	}

	shared := NewSharedStageCache()
	shared.Register("trace:k", tr)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	views := make([]*CacheView, goroutines)
	for g := 0; g < goroutines; g++ {
		views[g] = shared.View("trace:k")
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pool := workload.NewStackPool(c)
			rt := Runtime{View: views[g]} // credit this view with its stage-3 table traffic
			// Stagger the start config so cold builds race across goroutines.
			for i := range configs {
				ci := (i + g) % len(configs)
				a := configs[ci]
				s := a.Settings()
				wp, err := views[g].WireFor(a, s, c.ProcsPerNode)
				if err != nil {
					errs <- err
					return
				}
				for _, seed := range seeds {
					st, err := pool.Get(s, seed)
					if err != nil {
						errs <- err
						return
					}
					if err := rt.Exec(wp, st); err != nil {
						errs <- err
						return
					}
					if got, want := st.Sim.Now(), baseline[runKey{ci, seed}]; got != want {
						errs <- fmt.Errorf("goroutine %d cfg %d seed %d: runtime %v, solo baseline %v", g, ci, seed, got, want)
						return
					}
					pool.Put(st)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Aggregate accounting: every WireFor is a hit or a miss; each distinct
	// wire key is built exactly once (the build runs through the key's
	// slot, so racing requesters wait for it and then hit).
	total := int64(goroutines * len(configs))
	st := shared.Stats()
	if st.WireHits+st.WireMisses != total {
		t.Fatalf("wire hits(%d) + misses(%d) != %d lookups", st.WireHits, st.WireMisses, total)
	}
	if st.WireMisses < 1 || st.WireMisses > int64(len(configs)) {
		t.Fatalf("wire misses = %d, want between 1 and %d (one per distinct key)", st.WireMisses, len(configs))
	}
	// Per-view counters must sum to the merged totals; occupancy is the
	// cache's alone.
	var sum StageStats
	for _, v := range views {
		sum.add(v.Stats())
	}
	sum.HeldBytes, sum.Kernels = st.HeldBytes, st.Kernels
	if sum != st {
		t.Fatalf("per-view stats sum %+v != shared stats %+v", sum, st)
	}
}

// add accumulates o into s.
func (s *StageStats) add(o StageStats) {
	s.PlanHits += o.PlanHits
	s.PlanMisses += o.PlanMisses
	s.PlanDistinct += o.PlanDistinct
	s.WireHits += o.WireHits
	s.WireMisses += o.WireMisses
	s.WireDistinct += o.WireDistinct
	s.ServiceHits += o.ServiceHits
	s.ServiceMisses += o.ServiceMisses
	s.ServiceFallbacks += o.ServiceFallbacks
}

// TestKernelStoreConcurrentAccess interleaves Put, Get, Save, and Load on
// one store from many goroutines. Pins the contract under -race: an entry
// never changes once published (first Put wins), every concurrently saved
// file parses and verifies (no torn files), and every loaded entry is one
// of the candidates that raced.
func TestKernelStoreConcurrentAccess(t *testing.T) {
	trA := recordTrace(t, "macsio", 3)
	trB := recordTrace(t, "vpic", 3)
	trDisk := recordTrace(t, "flash", 3)

	// A disk store the loader goroutines merge in while puts race.
	diskPath := filepath.Join(t.TempDir(), "disk.json")
	{
		disk := NewKernelStore()
		disk.Put("disk:flash/16", KernelEntry{Trace: trDisk, KernelHash: "hash:disk"})
		if _, err := disk.Save(diskPath); err != nil {
			t.Fatal(err)
		}
	}

	s := NewKernelStore()
	const (
		putters = 6
		keys    = 4
		savers  = 2
	)
	saveDir := t.TempDir()
	savedPaths := make([][]string, savers)
	firstSeen := make([]map[string]string, putters)
	var wg sync.WaitGroup
	errs := make(chan error, putters+savers+2)

	for p := 0; p < putters; p++ {
		firstSeen[p] = make(map[string]string, keys)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("race:key/%d", k)
				tr, hash := trA, fmt.Sprintf("hash:A%d", p)
				if p%2 == 1 {
					tr, hash = trB, fmt.Sprintf("hash:B%d", p)
				}
				s.Put(key, KernelEntry{Trace: tr, KernelHash: hash})
				e, ok := s.Get(key)
				if !ok {
					errs <- fmt.Errorf("key %q missing immediately after Put", key)
					return
				}
				firstSeen[p][key] = e.KernelHash
			}
		}(p)
	}
	for sv := 0; sv < savers; sv++ {
		wg.Add(1)
		go func(sv int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				path := filepath.Join(saveDir, fmt.Sprintf("snap-%d-%d.json", sv, i))
				if _, err := s.Save(path); err != nil {
					errs <- err
					return
				}
				savedPaths[sv] = append(savedPaths[sv], path)
			}
		}(sv)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := s.Load(diskPath); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.Get(fmt.Sprintf("race:key/%d", i%keys))
			s.Len()
			s.Stats()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// First Put wins: whatever hash each goroutine observed right after its
	// own Put must be the hash everyone observed, and the final one.
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("race:key/%d", k)
		final, ok := s.Get(key)
		if !ok {
			t.Fatalf("key %q lost", key)
		}
		for p := 0; p < putters; p++ {
			if seen := firstSeen[p][key]; seen != final.KernelHash {
				t.Fatalf("key %q changed after publication: goroutine %d saw %q, final %q", key, p, seen, final.KernelHash)
			}
		}
	}
	// A loaded entry's hash is its trace's key, whatever the file said.
	if e, ok := s.Get("disk:flash/16"); !ok || e.KernelHash != TraceKey(trDisk) {
		t.Fatal("concurrently loaded disk entry missing or mangled")
	}

	// Every file saved mid-race must load cleanly into a fresh store — the
	// per-trace checksums inside Load make torn or mixed snapshots fail.
	for sv := range savedPaths {
		for _, path := range savedPaths[sv] {
			fresh := NewKernelStore()
			if _, err := fresh.Load(path); err != nil {
				t.Fatalf("snapshot %s saved during the race is torn: %v", path, err)
			}
		}
	}
}

// TestStageCacheWarmPathLockFree asserts the acceptance property directly:
// a warm-path hit — StageCache.WireFor on a cached key, KernelStore.Get on
// a stored kernel — acquires no mutex and allocates nothing. The mutex
// claim is checked with the runtime mutex profiler (any contended lock in
// this package's frames fails); the allocation claim with AllocsPerRun.
func TestStageCacheWarmPathLockFree(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	tr := recordTrace(t, "macsio", 3)
	cache := NewSharedStageCache()
	cache.Register("trace:k", tr)
	store := NewKernelStore()
	store.Put("kern", KernelEntry{Trace: tr, KernelHash: TraceKey(tr)})
	a := params.DefaultAssignment(params.Space())
	s := a.Settings()
	warm := cache.View("trace:k")

	// Warm serially: the one build locks to publish its slots, the probes
	// must not lock at all.
	if _, err := warm.WireFor(a, s, c.ProcsPerNode); err != nil {
		t.Fatal(err)
	}

	if got := testing.AllocsPerRun(100, func() {
		if _, err := warm.WireFor(a, s, c.ProcsPerNode); err != nil {
			t.Fatal(err)
		}
		if _, ok := store.Get("kern"); !ok {
			t.Fatal("warm Get missed")
		}
	}); got != 0 {
		t.Errorf("warm-path hit allocated %v times per run, want 0", got)
	}

	prev := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prev)
	maxprocs := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(maxprocs)

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			view := cache.View("trace:k")
			for i := 0; i < 5000; i++ {
				if _, err := view.WireFor(a, s, c.ProcsPerNode); err != nil {
					panic(err)
				}
				if _, ok := store.Get("kern"); !ok {
					panic("warm Get missed")
				}
			}
		}(g)
	}
	wg.Wait()

	for _, rec := range mutexRecords(t) {
		frames := runtime.CallersFrames(rec.Stack())
		for {
			f, more := frames.Next()
			if strings.Contains(f.Function, "tunio/internal/replay.") {
				t.Fatalf("warm-path hit contended a mutex at %s (%s:%d)", f.Function, f.File, f.Line)
			}
			if !more {
				break
			}
		}
	}
}

// mutexRecords drains the runtime mutex-contention profile.
func mutexRecords(t *testing.T) []runtime.BlockProfileRecord {
	t.Helper()
	n, _ := runtime.MutexProfile(nil)
	recs := make([]runtime.BlockProfileRecord, n+64)
	n, ok := runtime.MutexProfile(recs)
	if !ok {
		t.Fatal("mutex profile grew while reading")
	}
	return recs[:n]
}

// BenchmarkWarmHit primes a stage cache and kernel store and times
// the warm-path hit — a wire-plan lookup and a store lookup, no mutex —
// under RunParallel.
func BenchmarkWarmHit(b *testing.B) {
	cache, store := NewSharedStageCache(), NewKernelStore()
	c := cluster.CoriHaswell(2, 8)
	w, err := workload.ByName("macsio", c.Procs())
	if err != nil {
		b.Fatal(err)
	}
	st, err := workload.BuildStack(c, params.DefaultAssignment(params.Space()).Settings(), 1)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := Record(w, st)
	if err != nil {
		b.Fatal(err)
	}
	cache.Register("trace:k", tr)
	store.Put("kern", KernelEntry{Trace: tr, KernelHash: TraceKey(tr)})
	a := params.DefaultAssignment(params.Space())
	s := a.Settings()
	if _, err := cache.View("trace:k").WireFor(a, s, c.ProcsPerNode); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		view := cache.View("trace:k")
		for pb.Next() {
			if _, err := view.WireFor(a, s, c.ProcsPerNode); err != nil {
				b.Fatal(err)
			}
			if _, ok := store.Get("kern"); !ok {
				b.Fatal("warm Get missed")
			}
		}
	})
}
