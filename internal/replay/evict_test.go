package replay

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// tuneConfigs is a session's worth of configurations: random genomes of
// the full space, drawn from the seed, so plan and wire projections both
// vary.
func tuneConfigs(t *testing.T, seed int64, n int) []*params.Assignment {
	t.Helper()
	space := params.Space()
	r := rand.New(rand.NewSource(seed))
	out := make([]*params.Assignment, n)
	for i := range out {
		genome := make([]int, len(space))
		for j, p := range space {
			genome[j] = r.Intn(len(p.Values))
		}
		a, err := params.FromGenome(space, genome)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = a
	}
	return out
}

// tune scores the configurations through the view, in order, as a tuning
// session does — wire plan, then a replay seeded by the position — and
// returns what each replay left behind.
func tune(view *CacheView, c *cluster.Cluster, configs []*params.Assignment) ([]runOutcome, error) {
	pool := workload.NewStackPool(c)
	rt := Runtime{View: view}
	out := make([]runOutcome, len(configs))
	for i, a := range configs {
		s := a.Settings()
		wp, err := view.WireFor(a, s, c.ProcsPerNode)
		if err != nil {
			return nil, err
		}
		st, err := pool.Get(s, int64(i))
		if err != nil {
			return nil, err
		}
		if err := rt.Exec(wp, st); err != nil {
			return nil, err
		}
		out[i] = outcomeOfRun(st)
		pool.Put(st)
	}
	return out, nil
}

// sameCurve reports the first replay in which got differs from want.
func sameCurve(got, want []runOutcome) error {
	for i := range want {
		if d := got[i].diff(want[i]); d != "" {
			return fmt.Errorf("configuration %d: %s", i, d)
		}
	}
	return nil
}

// evictionKernels records two kernels and scores a session of each on a
// cache of its own: the curves a one-kernel cache must reproduce.
func evictionKernels(t *testing.T, c *cluster.Cluster, configs []*params.Assignment) (traces [2]*Trace, fresh [2][]runOutcome) {
	t.Helper()
	for i, name := range []string{"macsio", "flash"} {
		traces[i] = recordTrace(t, name, 3)
		var err error
		if fresh[i], err = tune(NewSharedStageCache().Register(TraceKey(traces[i]), traces[i]), c, configs); err != nil {
			t.Fatal(err)
		}
	}
	return traces, fresh
}

// A cache that holds one kernel at a time forgets A when B is registered
// and B when A comes back: tuning A, B, A, B one after another, then all
// four at once, every session scores every configuration bit for bit as a
// fresh cache does, and the return of a kernel rebuilds what its first
// session built. Runs under -race in CI.
func TestStageCacheEvictionKeepsCurves(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	configs := tuneConfigs(t, 11, 12)
	traces, fresh := evictionKernels(t, c, configs)

	cache := NewSharedStageCache()
	cache.SetBudget(1)
	var views []*CacheView
	for i := 0; i < 4; i++ {
		tr := traces[i%2]
		view := cache.Register(TraceKey(tr), tr)
		got, err := tune(view, c, configs)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameCurve(got, fresh[i%2]); err != nil {
			t.Fatalf("serial session %d under a one-kernel budget: %v", i, err)
		}
		views = append(views, view)
	}
	if st := cache.Stats(); st.Evicted != 3 || st.Kernels != 1 {
		t.Fatalf("%+v: four alternating sessions on a one-kernel cache must evict three times and hold one kernel", st)
	}
	if first, again := views[0].Stats(), views[2].Stats(); again.PlanMisses != first.PlanMisses || again.WireMisses != first.WireMisses {
		t.Fatalf("kernel A came back with %+v, its first session built %+v: an evicted kernel rebuilds", again, first)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := traces[g%2]
			got, err := tune(cache.Register(TraceKey(tr), tr), c, configs)
			if err == nil {
				err = sameCurve(got, fresh[g%2])
			}
			if err != nil {
				t.Errorf("concurrent session %d under a one-kernel budget: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
}

// Evicting a kernel in the middle of its session changes nothing the
// session sees: it keeps its artifacts, so it builds exactly what it would
// have built and scores the same curve. What it builds after the eviction
// stays its own — once every kernel is gone, the cache holds nothing.
func TestStageCacheEvictionMidSession(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	configs := tuneConfigs(t, 23, 16)
	traces, fresh := evictionKernels(t, c, configs)
	solo := NewSharedStageCache().Register(TraceKey(traces[0]), traces[0])
	if _, err := tune(solo, c, configs); err != nil {
		t.Fatal(err)
	}

	cache := NewSharedStageCache()
	cache.SetBudget(1)
	keyA := TraceKey(traces[0])
	view := cache.Register(keyA, traces[0])
	half := len(configs) / 2
	first, err := tune(view, c, configs[:half])
	if err != nil {
		t.Fatal(err)
	}
	cache.Register(TraceKey(traces[1]), traces[1])
	if cache.kernels.Snapshot()[keyA] != nil {
		t.Fatal("registering B on a one-kernel cache left A indexed: the test proves nothing")
	}
	rest, err := tune(view, c, configs[half:])
	if err != nil {
		t.Fatal(err)
	}
	// the replays of the second half were seeded from 0 again
	want, err := tune(NewSharedStageCache().Register(keyA, traces[0]), c, configs[half:])
	if err != nil {
		t.Fatal(err)
	}
	if err := sameCurve(first, fresh[0][:half]); err != nil {
		t.Fatalf("before the eviction: %v", err)
	}
	if err := sameCurve(rest, want); err != nil {
		t.Fatalf("after the eviction: %v", err)
	}
	got, whole := view.Stats(), solo.Stats()
	if got.PlanMisses != whole.PlanMisses || got.WireMisses != whole.WireMisses {
		t.Fatalf("session evicted half-way: %+v; uninterrupted: %+v — want the same builds", got, whole)
	}

	cache.evict("")
	if st := cache.Stats(); st.HeldBytes != 0 || st.Kernels != 0 || st.Evicted != 2 {
		t.Fatalf("%+v: with every kernel evicted the cache holds nothing", st)
	}
	if len(cache.canon.plans) != 0 || len(cache.canon.wires) != 0 {
		t.Fatalf("canon still holds %d stack plan hashes and %d wire plans", len(cache.canon.plans), len(cache.canon.wires))
	}
}

// The cache-wide counters never go backwards: an eviction folds the
// kernel's traffic into the retired totals as it drops the kernel, while
// occupancy falls.
func TestStageCacheStatsMonotoneAcrossEviction(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	configs := tuneConfigs(t, 5, 8)
	cache := NewSharedStageCache()
	for _, name := range []string{"macsio", "vpic", "hacc"} {
		tr := recordTrace(t, name, 3)
		for session := 0; session < 2; session++ { // the second one hits
			if _, err := tune(cache.Register(TraceKey(tr), tr), c, configs); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := cache.Stats()
	cache.SetBudget(1)
	tr := recordTrace(t, "bdcats", 3)
	cache.Register(TraceKey(tr), tr)
	after := cache.Stats()
	if after.Evicted != 3 || after.Kernels != 1 || after.HeldBytes >= before.HeldBytes {
		t.Fatalf("forced eviction: before %+v, after %+v", before, after)
	}
	for _, f := range []struct {
		name          string
		before, after int64
	}{
		{"plan_hits", before.PlanHits, after.PlanHits},
		{"plan_misses", before.PlanMisses, after.PlanMisses},
		{"plan_distinct", before.PlanDistinct, after.PlanDistinct},
		{"wire_hits", before.WireHits, after.WireHits},
		{"wire_misses", before.WireMisses, after.WireMisses},
		{"wire_distinct", before.WireDistinct, after.WireDistinct},
		{"service_hits", before.ServiceHits, after.ServiceHits},
		{"service_misses", before.ServiceMisses, after.ServiceMisses},
	} {
		if f.after < f.before || f.before == 0 {
			t.Errorf("%s went %d -> %d across an eviction", f.name, f.before, f.after)
		}
	}
}

// The kernel store evicts its least recently used traces once over its
// budget, down to the low water mark, and a Load that would overfill it
// evicts the kernels it loaded — never used here — before live ones.
func TestKernelStoreEvictsLeastRecentlyUsed(t *testing.T) {
	tr := recordTrace(t, "macsio", 3)
	one := tr.size()
	s := NewKernelStore()
	s.SetBudget(one * 27 / 10) // low water ~2 traces
	entry := KernelEntry{Trace: tr, KernelHash: TraceKey(tr)}
	s.Put("a", entry)
	s.Put("b", entry)
	if _, ok := s.Get("a"); !ok {
		t.Fatal("a missing")
	}
	s.Put("c", entry)
	if _, ok := s.Get("b"); ok {
		t.Fatal("b, the least recently used, survived the sweep")
	}
	for _, key := range []string{"a", "c"} {
		if _, ok := s.Get(key); !ok {
			t.Fatalf("%s was evicted", key)
		}
	}
	if st := s.Stats(); st.Kernels != 2 || st.Evicted != 1 || st.HeldBytes != 2*one {
		t.Fatalf("%+v: want two traces of %d bytes held, one evicted", st, one)
	}

	path := filepath.Join(t.TempDir(), "kernels.json")
	disk := NewKernelStore()
	for _, key := range []string{"x", "y", "z"} {
		disk.Put(key, entry)
	}
	if _, err := disk.Save(path); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Load(path); err != nil || n != 3 {
		t.Fatalf("Load = %d, %v", n, err)
	}
	st := s.Stats()
	if st.HeldBytes > one*27/10 || st.Kernels != 2 || st.Evicted != 4 {
		t.Fatalf("%+v: a Load over the budget must sweep to the low water mark", st)
	}
	for _, key := range []string{"a", "c"} {
		if _, ok := s.Get(key); !ok {
			t.Fatalf("live kernel %s evicted before never-used loaded ones", key)
		}
	}
}
