package replay

import (
	"fmt"
	"strings"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/darshan"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// mutate returns the default assignment with the named parameters moved to
// the given value indices.
// privateCache is what production code does for a cache of its own: a
// fresh StageCache with the trace registered under its content key, and a
// view bound to that key.
func privateCache(tr *Trace) (*StageCache, *CacheView) {
	c, key := NewSharedStageCache(), TraceKey(tr)
	c.Register(key, tr)
	return c, c.View(key)
}

// lowerFresh runs stages 1 and 2 with no cache involved: the plan a cache
// hit must be indistinguishable from.
func lowerFresh(tr *Trace, s params.StackSettings, ppn int) (*WirePlan, error) {
	sp, err := BuildStackPlan(tr, s.HDF5)
	if err != nil {
		return nil, err
	}
	return LowerPlan(sp, s.Hints, s.HDF5, ppn), nil
}

func mutate(t *testing.T, pairs map[string]int) *params.Assignment {
	t.Helper()
	a := params.DefaultAssignment(params.Space())
	for name, idx := range pairs {
		if err := a.SetIndex(name, idx); err != nil {
			t.Fatalf("SetIndex(%s, %d): %v", name, idx, err)
		}
	}
	return a
}

func reportsEqual(t *testing.T, label string, live, staged *darshan.Report) {
	t.Helper()
	layers := live.Layers()
	if got := staged.Layers(); len(got) != len(layers) {
		t.Fatalf("%s: layer sets differ: live %v, staged %v", label, layers, got)
	}
	for _, name := range layers {
		a, b := *live.Layer(name), *staged.Layer(name)
		if a != b {
			t.Errorf("%s: layer %s differs:\n live   %+v\n staged %+v", label, name, a, b)
		}
	}
}

// TestStagedExecMatchesLiveRun proves the staged pipeline is bit-identical
// to running the recorded workload live: same clock, same counters, for
// every workload and a spread of configurations exercising each stage's
// footprint. Each (configuration, seed) is replayed three ways — through
// the cached wire plan twice, so once with the phase-table slots of its
// layout empty and then with them filled, and through a freshly lowered
// plan that has no tables at all — and all three must equal the live run.
func TestStagedExecMatchesLiveRun(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	configs := map[string]*params.Assignment{
		"default": params.DefaultAssignment(params.Space()),
		"plan":    mutate(t, map[string]int{params.Alignment: 5, params.SieveBufSize: 6, params.ChunkCache: 1}),
		"agg": mutate(t, map[string]int{params.CollectiveWrite: 1, params.CBNodes: 3,
			params.CBBufferSize: 1, params.CollMetadataOps: 1, params.CollMetadataWrite: 1, params.MetaBlockSize: 7}),
		"service": mutate(t, map[string]int{params.StripingFactor: 6, params.StripingUnit: 0, params.MDCConfig: 0}),
		"mixed": mutate(t, map[string]int{params.CollectiveWrite: 1, params.Alignment: 3,
			params.StripingFactor: 3, params.MDCConfig: 3, params.ChunkCache: 0}),
	}

	for _, name := range []string{"vpic", "hacc", "flash", "bdcats", "macsio", "ior"} {
		w, err := workload.ByName(name, c.Procs())
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		recStack, err := workload.BuildStack(c, params.DefaultAssignment(params.Space()).Settings(), 1)
		if err != nil {
			t.Fatalf("BuildStack: %v", err)
		}
		trace, err := Record(w, recStack)
		if err != nil {
			t.Fatalf("Record(%s): %v", name, err)
		}
		cache, view := privateCache(trace)
		var rt Runtime

		for cfgName, a := range configs {
			for _, seed := range []int64{1, 42} {
				label := name + "/" + cfgName
				s := a.Settings()

				live, err := workload.Execute(w, c, s, seed)
				if err != nil {
					t.Fatalf("%s: live Execute: %v", label, err)
				}

				cached, err := view.WireFor(a, s, c.ProcsPerNode)
				if err != nil {
					t.Fatalf("%s: WireFor: %v", label, err)
				}
				fresh, err := lowerFresh(trace, s, c.ProcsPerNode)
				if err != nil {
					t.Fatalf("%s: lowerFresh: %v", label, err)
				}
				var firstUses int64 // table slots the first exec went through
				for _, run := range []struct {
					how string
					wp  *WirePlan
				}{{"first exec", cached}, {"warm tables", cached}, {"fresh plan", fresh}} {
					st, err := workload.BuildStack(c, s, seed)
					if err != nil {
						t.Fatalf("%s: BuildStack: %v", label, err)
					}
					before := cache.Stats()
					if err := rt.Exec(run.wp, st); err != nil {
						t.Fatalf("%s: Exec: %v", label, err)
					}
					if got, want := st.Sim.Now(), live.Runtime; got != want {
						t.Errorf("%s seed %d, %s: runtime %v, live %v", label, seed, run.how, got, want)
					}
					reportsEqual(t, label+", "+run.how, live.Report, st.Sim.Report)

					// What the tables did: a fresh plan reports to no cache; the
					// first exec takes every phase, and the read of every
					// metadata touch that missed, through a slot; a warm one —
					// same seed, so the same touches miss — finds them all
					// filled and neither plans nor falls back (a recorded trace
					// creates and grows its files in one fixed order).
					after := cache.Stats()
					hits, misses := after.ServiceHits-before.ServiceHits, after.ServiceMisses-before.ServiceMisses
					switch run.how {
					case "fresh plan":
						if hits != 0 || misses != 0 {
							t.Errorf("%s, %s: counted %d hits, %d misses on the cache", label, run.how, hits, misses)
						}
					case "first exec":
						if firstUses = hits + misses; firstUses < int64(cached.phases) {
							t.Errorf("%s, %s: %d slots used, plan has %d phases", label, run.how, firstUses, cached.phases)
						}
					case "warm tables":
						if misses != 0 || hits != firstUses {
							t.Errorf("%s, %s: %d hits, %d misses, want %d hits", label, run.how, hits, misses, firstUses)
						}
					}
					if after.ServiceFallbacks != 0 {
						t.Errorf("%s, %s: %d fallbacks", label, run.how, after.ServiceFallbacks)
					}
				}
			}
		}
		if st := cache.Stats(); st.ServiceHits == 0 {
			t.Errorf("%s: no phase table was ever reused: %+v", name, st)
		}
	}
}

// TestStageCacheHitMatchesMiss proves a cached wire plan scores a genome
// byte-identically to a freshly recomputed one.
func TestStageCacheHitMatchesMiss(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	w, err := workload.ByName("flash", c.Procs())
	if err != nil {
		t.Fatal(err)
	}
	recStack, err := workload.BuildStack(c, params.DefaultAssignment(params.Space()).Settings(), 1)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := Record(w, recStack)
	if err != nil {
		t.Fatal(err)
	}
	cache, view := privateCache(trace)
	a := mutate(t, map[string]int{params.CollectiveWrite: 1, params.StripingFactor: 5})
	s := a.Settings()

	// Prime the cache, then fetch again (hit) and recompute uncached.
	if _, err := view.WireFor(a, s, c.ProcsPerNode); err != nil {
		t.Fatal(err)
	}
	hit, err := view.WireFor(a, s, c.ProcsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := lowerFresh(trace, s, c.ProcsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	stats := cache.Stats()
	if stats.WireHits != 1 || stats.WireMisses != 1 {
		t.Fatalf("stats = %+v, want 1 wire hit / 1 miss", stats)
	}

	var rtHit, rtMiss Runtime
	run := func(rt *Runtime, wp *WirePlan) *workload.Stack {
		st, err := workload.BuildStack(c, s, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Exec(wp, st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	stHit, stMiss := run(&rtHit, hit), run(&rtMiss, miss)
	if stHit.Sim.Now() != stMiss.Sim.Now() {
		t.Errorf("cache hit runtime %v != miss %v", stHit.Sim.Now(), stMiss.Sim.Now())
	}
	reportsEqual(t, "hit-vs-miss", stHit.Sim.Report, stMiss.Sim.Report)
}

// TestPooledStackMatchesFresh proves a Reset pooled stack is run-for-run
// indistinguishable from a freshly built one.
func TestPooledStackMatchesFresh(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	w, err := workload.ByName("vpic", c.Procs())
	if err != nil {
		t.Fatal(err)
	}
	a := mutate(t, map[string]int{params.CollectiveWrite: 1, params.Alignment: 2})
	s := a.Settings()

	pool := workload.NewStackPool(c)
	// Dirty a stack with a different config/seed, return it, and reuse it.
	dirty, err := pool.Get(params.DefaultAssignment(params.Space()).Settings(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(dirty); err != nil {
		t.Fatal(err)
	}
	pool.Put(dirty)

	pooled, err := pool.Get(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(pooled); err != nil {
		t.Fatal(err)
	}

	fresh, err := workload.Execute(w, c, s, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pooled.Sim.Now() != fresh.Runtime {
		t.Errorf("pooled runtime %v != fresh %v", pooled.Sim.Now(), fresh.Runtime)
	}
	reportsEqual(t, "pooled-vs-fresh", fresh.Report, pooled.Sim.Report)
}

// TestStagedPlanRefusesWhatTheLibraryRefuses: a trace reaches stage 1 from
// outside the program (a loaded kernel store verifies a hash, not a shape),
// so what the live library refuses the staged engine must refuse too — and,
// stage 1 being the library itself, with the library's own error.
func TestStagedPlanRefusesWhatTheLibraryRefuses(t *testing.T) {
	c := cluster.CoriHaswell(1, 4)
	s := defaults()
	const file = "/scratch/refused.h5"
	create := Event{Kind: EvCreateFile, File: file}
	dataset := func(name string) Event {
		return Event{Kind: EvCreateDataset, File: file, Dataset: name, Dims: []int64{64}, Elem: 8}
	}
	closeFile := Event{Kind: EvCloseFile, File: file}
	group := Event{Kind: EvCreateGroup, File: file, Dataset: "g"}
	write := Event{Kind: EvWrite, File: file, Dataset: "x",
		Slabs: []Slab{{Rank: 0, Start: []int64{0}, Count: []int64{16}}}}

	for _, tc := range []struct {
		name   string
		events []Event
		at     int // the event refused
	}{
		{"dataset created twice", []Event{create, dataset("x"), dataset("x"), closeFile}, 2},
		{"transfer after close_file", []Event{create, dataset("x"), closeFile, write}, 3},
		{"file closed twice", []Event{create, closeFile, closeFile}, 2},
		{"group created twice", []Event{create, group, group, closeFile}, 2},
		{"empty dataset name", []Event{create, dataset(""), closeFile}, 1},
	} {
		tr := &Trace{Nprocs: c.Procs(), Events: tc.events}
		_, live := workload.Execute(&Player{T: tr}, c, s, 1)
		sp, plan := BuildStackPlan(tr, s.HDF5)
		if live == nil || plan == nil {
			var exec error
			if plan == nil {
				st, err := workload.BuildStack(c, s, 1)
				if err != nil {
					t.Fatal(err)
				}
				exec = new(Runtime).Exec(LowerPlan(sp, s.Hints, s.HDF5, c.ProcsPerNode), st)
			}
			t.Errorf("%s: live=%v, plan=%v, exec=%v; want both refused", tc.name, live, plan, exec)
			continue
		}
		want := fmt.Sprintf("replay: event %d: hdf5: ", tc.at)
		if !strings.HasPrefix(plan.Error(), want) {
			t.Errorf("%s: plan error %q, want prefix %q", tc.name, plan, want)
		}
		if !strings.HasSuffix(live.Error(), plan.Error()) {
			t.Errorf("%s: live error %q does not end in the planner's %q", tc.name, live, plan)
		}
	}
}
