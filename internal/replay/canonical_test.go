package replay

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/darshan"
	"tunio/internal/hdf5"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// runOutcome is everything a replay leaves behind.
type runOutcome struct {
	clock  float64
	layers map[string]darshan.LayerCounters
}

func outcomeOfRun(st *workload.Stack) runOutcome {
	o := runOutcome{clock: st.Sim.Now(), layers: map[string]darshan.LayerCounters{}}
	for _, name := range st.Sim.Report.Layers() {
		o.layers[name] = *st.Sim.Report.Layer(name)
	}
	return o
}

func (o runOutcome) diff(want runOutcome) string {
	if o.clock != want.clock {
		return fmt.Sprintf("clock %v, want %v", o.clock, want.clock)
	}
	if len(o.layers) != len(want.layers) {
		return fmt.Sprintf("layers %v, want %v", o.layers, want.layers)
	}
	for name, lc := range want.layers {
		if o.layers[name] != lc {
			return fmt.Sprintf("layer %s %+v, want %+v", name, o.layers[name], lc)
		}
	}
	return ""
}

// TestCanonicalPlanIsFreshPlan is the soundness proof of holding artifacts
// once per content: over all five workloads registered in one shared cache
// and random assignments, the wire plan a view is served — whichever
// projection, kernel or goroutine built the stack plan, the collective
// schedules and the phase tables behind it — replays bit-identically to the
// plan Lower builds from scratch on a cache of its own. Eight goroutines
// walk the cases in staggered order, so first touches of plans, wire plans,
// slot arrays and tables all race. Runs under -race in CI.
func TestCanonicalPlanIsFreshPlan(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	space := params.Space()
	r := rand.New(rand.NewSource(17))
	shared := NewSharedStageCache()

	type testCase struct {
		kernel string
		a      *params.Assignment
		s      params.StackSettings
		want   [2]runOutcome // per seed
	}
	seeds := [2]int64{1, 42}
	var cases []*testCase
	reads := map[string]hdf5.PlanReads{} // each kernel's plan footprint
	var rt Runtime
	for _, name := range []string{"vpic", "hacc", "flash", "bdcats", "macsio"} {
		tr := recordTrace(t, name, 3)
		shared.Register("trace:"+name, tr)
		sp, err := BuildStackPlan(tr, hdf5.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		reads["trace:"+name] = sp.Reads
		for i := 0; i < 10; i++ {
			genome := make([]int, len(space))
			for j, p := range space {
				genome[j] = r.Intn(len(p.Values))
			}
			a, err := params.FromGenome(space, genome)
			if err != nil {
				t.Fatal(err)
			}
			tc := &testCase{kernel: "trace:" + name, a: a, s: a.Settings()}
			wp, err := lowerFresh(tr, tc.s, c.ProcsPerNode)
			if err != nil {
				t.Fatal(err)
			}
			for si, seed := range seeds {
				st, err := workload.BuildStack(c, tc.s, seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := rt.Exec(wp, st); err != nil {
					t.Fatal(err)
				}
				tc.want[si] = outcomeOfRun(st)
			}
			cases = append(cases, tc)
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			views := map[string]*CacheView{}
			pool := workload.NewStackPool(c)
			var rt Runtime
			for i := range cases {
				tc := cases[(i+g*len(cases)/goroutines)%len(cases)]
				view := views[tc.kernel]
				if view == nil {
					view = shared.View(tc.kernel)
					views[tc.kernel] = view
				}
				wp, err := view.WireFor(tc.a, tc.s, c.ProcsPerNode)
				if err != nil {
					t.Error(err)
					return
				}
				for si, seed := range seeds {
					st, err := pool.Get(tc.s, seed)
					if err != nil {
						t.Error(err)
						return
					}
					if err := rt.Exec(wp, st); err != nil {
						t.Error(err)
						return
					}
					if d := outcomeOfRun(st).diff(tc.want[si]); d != "" {
						t.Errorf("goroutine %d, %s under %v, seed %d: shared cache vs fresh plan: %s", g, tc.kernel, tc.a, seed, d)
						return
					}
					pool.Put(st)
				}
			}
		}(g)
	}
	wg.Wait()

	// The accounting the sharing must leave alone, and the sharing itself.
	keys := map[string]bool{}
	for _, tc := range cases {
		key := tc.a.AppendPlanProjection([]byte(tc.kernel+"\x00"), reads[tc.kernel])
		keys[string(tc.a.AppendProjection(key, params.AggregateStage))] = true
	}
	st := shared.Stats()
	if st.WireMisses != int64(len(keys)) || st.WireHits+st.WireMisses != int64(goroutines*len(cases)) {
		t.Fatalf("%+v: want %d wire misses (one per distinct projection of what the kernel reads) in %d lookups", st, len(keys), goroutines*len(cases))
	}
	if st.PlanDistinct >= st.PlanMisses || st.PlanDistinct < 5 {
		t.Fatalf("%+v: random plan projections of five kernels should build more plans than they keep, and keep at least one per kernel", st)
	}
	if st.WireDistinct > st.WireMisses || st.WireDistinct < st.PlanDistinct {
		t.Fatalf("%+v: wire plans held must lie between stack plans held and wire keys answered", st)
	}
	if st.ServiceFallbacks != 0 || st.ServiceHits == 0 {
		t.Fatalf("%+v: recorded traces never fall back, and %d goroutines must have reused tables", st, goroutines)
	}
}

// TestCanonicalWireKeyBlanksUnreadHints pins which configurations share a
// wire plan: independent transfers never read the aggregator shape, flushes
// that go out per item never read the block size; a collective direction
// reads both.
func TestCanonicalWireKeyBlanksUnreadHints(t *testing.T) {
	tr := recordTrace(t, "flash", 3)
	cache, view := privateCache(tr)
	wire := func(pairs map[string]int) *WirePlan {
		a := mutate(t, pairs)
		wp, err := view.WireFor(a, a.Settings(), 8)
		if err != nil {
			t.Fatal(err)
		}
		return wp
	}
	base := wire(nil)
	if wire(map[string]int{params.CBNodes: 3, params.CBBufferSize: 1, params.MetaBlockSize: 5}) != base {
		t.Error("independent siblings differing in cb_nodes / cb_buffer_size / meta_block_size did not share a wire plan")
	}
	coll := wire(map[string]int{params.CollectiveWrite: 1})
	if coll == base {
		t.Error("collective and independent configurations share a wire plan")
	}
	if wire(map[string]int{params.CollectiveWrite: 1, params.CBBufferSize: 1}) == coll {
		t.Error("collective siblings differing in cb_buffer_size share a wire plan")
	}
	blocks := wire(map[string]int{params.CollMetadataWrite: 1})
	if blocks == base || wire(map[string]int{params.CollMetadataWrite: 1, params.MetaBlockSize: 5}) == blocks {
		t.Error("collective metadata writes must key on meta_block_size")
	}
	if st := cache.Stats(); st.WireMisses != 6 || st.WireDistinct != 5 || st.PlanMisses != 1 {
		t.Fatalf("%+v: want 6 wire keys over 5 wire plans and 1 stack plan", st)
	}
}

// TestCanonicalHashCollisionKeptApart forces two unequal stack plans onto
// one hash: the hash only narrows the search, equality decides, so they stay
// two artifacts — and a third plan equal to the first is still found.
func TestCanonicalHashCollisionKeptApart(t *testing.T) {
	tr := recordTrace(t, "vpic", 3)
	build := func(pairs map[string]int) *StackPlan {
		sp, err := BuildStackPlan(tr, mutate(t, pairs).Settings().HDF5)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	a, b, again := build(nil), build(map[string]int{params.SieveBufSize: 5}), build(nil)
	if a.equal(b) || a.contentHash() == b.contentHash() {
		t.Fatal("a 2 MiB sieve buffer left vpic's extents alone: the test needs two unequal plans")
	}
	if !a.equal(again) || a.contentHash() != again.contentHash() {
		t.Fatal("two builds of one projection differ")
	}

	var cn canon
	k := new(kernelArtifacts)
	const hash = 7
	if got, added := cn.plan(k, a, hash); got != a || !added {
		t.Fatalf("first plan: got %p added %v", got, added)
	}
	if got, added := cn.plan(k, b, hash); got != b || !added {
		t.Fatalf("unequal plan on the same hash: got %p (a %p, b %p) added %v", got, a, b, added)
	}
	if got, added := cn.plan(k, again, hash); got != a || added {
		t.Fatalf("equal plan: got %p (a %p) added %v", got, a, added)
	}
	if plans := len(cn.plans[hash]); plans != 2 {
		t.Fatalf("%d plans held, want 2", plans)
	}
}
