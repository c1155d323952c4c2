package replay

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tunio/internal/params"
)

// Eight goroutines ask for one absent key at once: the build runs once, its
// caller books the miss, the other seven wait for it and book hits, and all
// eight are handed the same value.
func TestStageCacheLookupOrBuildOnce(t *testing.T) {
	const goroutines = 8
	var tab artifacts[*int]
	var session traffic
	var builds atomic.Int64
	var start, wg sync.WaitGroup
	start.Add(goroutines)
	got := make([]*int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Done()
			start.Wait()
			var err error
			got[g], err = tab.lookupOrBuild([]byte("key"), &session, func() (*int, error) {
				builds.Add(1)
				return new(int), nil
			})
			if err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if builds.Load() != 1 || tab.misses.Load() != 1 || tab.hits.Load() != goroutines-1 {
		t.Fatalf("%d builds, %d misses, %d hits; want 1, 1, %d", builds.Load(), tab.misses.Load(), tab.hits.Load(), goroutines-1)
	}
	if session.misses.Load() != 1 || session.hits.Load() != goroutines-1 {
		t.Fatalf("the callers' own counters read %d misses, %d hits; want 1, %d", session.misses.Load(), session.hits.Load(), goroutines-1)
	}
	for g := range got {
		if got[g] == nil || got[g] != got[0] {
			t.Fatalf("goroutine %d was handed %p, goroutine 0 %p", g, got[g], got[0])
		}
	}
}

// A build parked mid-way holds up only callers of its own key: a different
// key of the same map builds, and a key already built hits, while it is
// parked.
func TestStageCacheParkedBuildBlocksNoOtherKey(t *testing.T) {
	var tab artifacts[string]
	var setup, parkedCaller, session traffic
	if _, err := tab.lookupOrBuild([]byte("warm"), &setup, func() (string, error) { return "w", nil }); err != nil {
		t.Fatal(err)
	}

	parked, release := make(chan struct{}), make(chan struct{})
	slow := make(chan string)
	go func() {
		v, _ := tab.lookupOrBuild([]byte("slow"), &parkedCaller, func() (string, error) {
			close(parked)
			<-release
			return "s", nil
		})
		slow <- v
	}()
	<-parked

	others := make(chan string)
	go func() {
		v, _ := tab.lookupOrBuild([]byte("other"), &session, func() (string, error) { return "o", nil })
		others <- v
		v, _ = tab.lookupOrBuild([]byte("warm"), &session, func() (string, error) {
			t.Error("a built key was built again")
			return "", nil
		})
		others <- v
	}()
	for _, want := range []string{"o", "w"} {
		select {
		case got := <-others:
			if got != want {
				t.Fatalf("got %q, want %q", got, want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("lookup of %q blocked behind another key's parked build", want)
		}
	}
	if session.misses.Load() != 1 || session.hits.Load() != 1 {
		t.Fatalf("building one key and hitting another booked %d misses, %d hits", session.misses.Load(), session.hits.Load())
	}
	close(release)
	if got := <-slow; got != "s" {
		t.Fatalf("parked build returned %q", got)
	}
}

// A build that fails is an outcome like any other: every caller of the key
// is handed its error, it ran once, and nothing enters canon — a trace that
// cannot be planned adds no distinct plan and no distinct wire plan.
func TestStageCacheFailedBuildIsReturnedToEveryCaller(t *testing.T) {
	var tab artifacts[int]
	var session traffic
	boom := errors.New("boom")
	var builds int
	for i := 0; i < 3; i++ {
		_, err := tab.lookupOrBuild([]byte("k"), &session, func() (int, error) {
			builds++
			return 0, boom
		})
		if err != boom {
			t.Fatalf("call %d: err %v", i, err)
		}
	}
	if builds != 1 || session.misses.Load() != 1 || session.hits.Load() != 2 {
		t.Fatalf("failed build ran %d times, booked %d misses and %d hits; want 1, 1, 2", builds, session.misses.Load(), session.hits.Load())
	}

	c := NewSharedStageCache()
	c.Register("trace:empty", &Trace{})
	a := params.DefaultAssignment(params.Space())
	var first error
	for i, v := range []*CacheView{c.View("trace:empty"), c.View("trace:empty"), c.View("trace:empty")} {
		_, err := v.WireFor(a, a.Settings(), 8)
		if err == nil {
			t.Fatal("planning an empty trace: want error")
		}
		if i == 0 {
			first = err
		} else if err != first {
			t.Fatalf("view %d got %v, view 0 got %v: want the one build's error", i, err, first)
		}
	}
	if st := c.Stats(); st.PlanDistinct != 0 || st.WireDistinct != 0 || st.PlanMisses != 1 || st.WireMisses != 1 || st.WireHits != 2 {
		t.Fatalf("%+v: want one failed build per stage, two wire hits on it, nothing held", st)
	}
}

// mapID identifies a published map: snapshots of an unchanged cowmap.Map
// are the same map.
func mapID[K comparable, V any](m map[K]V) uintptr { return reflect.ValueOf(m).Pointer() }

// The kernel is the partition: an insert under kernel A clones A's maps
// only. Kernel B's published maps — and the kernel index itself — are the
// very same maps afterwards.
func TestStageCacheInsertBoundedByKernel(t *testing.T) {
	c := NewSharedStageCache()
	c.Register("trace:a", recordTrace(t, "macsio", 3))
	c.Register("trace:b", recordTrace(t, "vpic", 3))
	va, vb := c.View("trace:a"), c.View("trace:b")
	def := params.DefaultAssignment(params.Space())
	for _, v := range []*CacheView{va, vb} {
		if _, err := v.WireFor(def, def.Settings(), 8); err != nil {
			t.Fatal(err)
		}
	}

	b := c.kernels.Snapshot()["trace:b"]
	kernels, plans, wires := mapID(c.kernels.Snapshot()), mapID(b.plans.m.Snapshot()), mapID(b.wires.m.Snapshot())
	aPlans, aWires := mapID(va.kernel.plans.m.Snapshot()), mapID(va.kernel.wires.m.Snapshot())

	other := mutate(t, map[string]int{params.Alignment: 3, params.CollectiveWrite: 1})
	if _, err := va.WireFor(other, other.Settings(), 8); err != nil {
		t.Fatal(err)
	}
	if mapID(va.kernel.plans.m.Snapshot()) == aPlans || mapID(va.kernel.wires.m.Snapshot()) == aWires {
		t.Fatal("a new projection of kernel A did not republish A's maps: the test proves nothing")
	}
	if mapID(b.plans.m.Snapshot()) != plans || mapID(b.wires.m.Snapshot()) != wires {
		t.Fatal("an insert under kernel A republished kernel B's maps")
	}
	if mapID(c.kernels.Snapshot()) != kernels {
		t.Fatal("an insert under a registered kernel republished the kernel index")
	}
}

// A view taken before its kernel is registered errors until then and works
// from then on: the "no trace registered" answer is never cached.
func TestStageCacheViewBeforeRegister(t *testing.T) {
	c := NewSharedStageCache()
	early := c.View("trace:late")
	a := params.DefaultAssignment(params.Space())
	for i := 0; i < 2; i++ {
		if _, err := early.WireFor(a, a.Settings(), 8); err == nil {
			t.Fatal("WireFor before Register: want error")
		}
	}
	if st := c.Stats(); st != (StageStats{}) {
		t.Fatalf("lookups of an unregistered kernel left traffic behind: %+v", st)
	}
	tr := recordTrace(t, "macsio", 3)
	c.Register("trace:late", tr)
	wp, err := early.WireFor(a, a.Settings(), 8)
	if err != nil {
		t.Fatalf("WireFor after Register through a view taken before it: %v", err)
	}
	if again, err := c.View("trace:late").WireFor(a, a.Settings(), 8); err != nil || again != wp {
		t.Fatalf("a view taken after Register got %p, %v; the early view got %p", again, err, wp)
	}
	if st := early.Stats(); st.WireMisses != 1 || st.WireHits != 0 {
		t.Fatalf("early view stats %+v, want the one miss that built the plan", st)
	}
	// The footprint is learned with the kernel, never assumed by the view:
	// macsio's datasets are contiguous, so a chunk cache of another size is
	// the key just built.
	b := mutate(t, map[string]int{params.ChunkCache: 7})
	if again, err := early.WireFor(b, b.Settings(), 8); err != nil || again != wp {
		t.Fatalf("a chunk_cache sibling got %p, %v; want the plan %p the early view built", again, err, wp)
	}
	if st := early.Stats(); st.PlanMisses != 1 || st.WireMisses != 1 || st.WireHits != 1 {
		t.Fatalf("early view stats %+v, want one build of each stage and the sibling's hit", st)
	}
}

// Two views on one shared cache: artifacts are shared (the second view's
// first query is a hit), while hit/miss counters stay per-view.
func TestSharedStageCacheViews(t *testing.T) {
	tr := recordTrace(t, "macsio", 3)
	shared := NewSharedStageCache()
	shared.Register("trace:k1", tr)
	shared.Register("trace:k1", recordTrace(t, "vpic", 3)) // first registration must win
	if shared.kernels.Snapshot()["trace:k1"] == nil || shared.Stats().Kernels != 1 {
		t.Fatal("registration bookkeeping wrong")
	}

	a := params.DefaultAssignment(params.Space())
	s := a.Settings()
	v1 := shared.View("trace:k1")
	wp1, err := v1.WireFor(a, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	v2 := shared.View("trace:k1")
	wp2, err := v2.WireFor(a, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if wp1 != wp2 {
		t.Fatal("views did not share the cached wire plan")
	}
	if st := v1.Stats(); st.WireMisses != 1 || st.WireHits != 0 || st.PlanMisses != 1 {
		t.Fatalf("view1 stats = %+v, want 1 wire miss / 1 plan miss", st)
	}
	if st := v2.Stats(); st.WireHits != 1 || st.WireMisses != 0 {
		t.Fatalf("view2 stats = %+v, want 1 wire hit", st)
	}
	if st := shared.Stats(); st.WireHits != 1 || st.WireMisses != 1 {
		t.Fatalf("shared stats = %+v, want 1 hit + 1 miss", st)
	}

	// A view on a different kernel must not see k1's artifacts.
	shared.Register("trace:k2", recordTrace(t, "vpic", 3))
	v3 := shared.View("trace:k2")
	wp3, err := v3.WireFor(a, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if wp3 == wp1 {
		t.Fatal("kernel keys did not partition the shared cache")
	}
	if st := v3.Stats(); st.WireMisses != 1 || st.WireDistinct != 1 || st.PlanDistinct != 1 {
		t.Fatalf("view3 stats = %+v, want 1 wire miss adding 1 plan and 1 wire", st)
	}

	// The same trace under another key is a miss of its own — keys are
	// never answered across kernels — that adds nothing: the artifacts are
	// pure data, held once per content.
	shared.Register("trace:k1-again", tr)
	v4 := shared.View("trace:k1-again")
	wp4, err := v4.WireFor(a, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if wp4 != wp1 {
		t.Fatal("equal content under two kernel keys was built twice")
	}
	if st := v4.Stats(); st.WireMisses != 1 || st.PlanMisses != 1 || st.WireDistinct != 0 || st.PlanDistinct != 0 {
		t.Fatalf("view4 stats = %+v, want 1 wire miss and 1 plan miss adding nothing", st)
	}
	if st := shared.Stats(); st.PlanDistinct != 2 || st.WireDistinct != 2 || st.WireMisses != 3 {
		t.Fatalf("shared stats = %+v, want 3 wire misses over 2 plans and 2 wires", st)
	}
}

// A view keyed to an unregistered kernel fails loudly instead of planning
// against someone else's trace.
func TestSharedStageCacheUnregisteredKernel(t *testing.T) {
	shared := NewSharedStageCache()
	a := params.DefaultAssignment(params.Space())
	if _, err := shared.View("trace:ghost").WireFor(a, a.Settings(), 8); err == nil {
		t.Fatal("WireFor on an unregistered kernel: want error")
	}
}

// A trace filed under one key can be filed again under another: both views
// plan from it, and a key, once bound, keeps its first trace.
func TestStageCacheRebind(t *testing.T) {
	tr := recordTrace(t, "macsio", 3)
	c, early := privateCache(tr)
	c.Register("trace:late", tr)
	if k := c.Stats().Kernels; c.kernels.Snapshot()["trace:late"] == nil || k != 2 {
		t.Fatalf("%d kernels registered, want the trace under both keys", k)
	}
	late := c.View("trace:late")
	if late.KernelKey() != "trace:late" {
		t.Fatalf("kernel key = %q", late.KernelKey())
	}
	a := params.DefaultAssignment(params.Space())
	for _, v := range []*CacheView{early, late} {
		if _, err := v.WireFor(a, a.Settings(), 8); err != nil {
			t.Fatalf("%s: %v", v.KernelKey(), err)
		}
	}
	// First registration wins: another kernel's trace cannot take the key.
	c.Register("trace:late", recordTrace(t, "vpic", 3))
	b := mutate(t, map[string]int{params.Alignment: 3})
	wp, err := late.WireFor(b, b.Settings(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := lowerFresh(tr, b.Settings(), 8); len(wp.ops) != len(want.ops) {
		t.Fatalf("trace:late plans %d ops, the first trace plans %d", len(wp.ops), len(want.ops))
	}
}
