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
