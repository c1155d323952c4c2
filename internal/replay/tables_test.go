package replay

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/hdf5"
	"tunio/internal/ioreq"
	"tunio/internal/lustre"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// tableHarness records the workload (sized for a 2×8 cluster) and returns
// what the phase-table tests need: a lowering function under a's
// configuration (every call a plan with empty tables, counting into its own
// service counters) and a stack builder.
func tableHarness(t testing.TB, w workload.Workload, a *params.Assignment) (lower func() *WirePlan, stack func(s params.StackSettings, seed int64) *workload.Stack) {
	t.Helper()
	c := cluster.CoriHaswell(2, 8)
	recStack, err := workload.BuildStack(c, params.DefaultAssignment(params.Space()).Settings(), 1)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := Record(w, recStack)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := BuildStackPlan(trace, a.Settings().HDF5)
	if err != nil {
		t.Fatal(err)
	}
	lower = func() *WirePlan {
		wp := LowerPlan(sp, a.Settings().Hints, a.Settings().HDF5, c.ProcsPerNode)
		wp.service = &serviceCounters{}
		return wp
	}
	stack = func(s params.StackSettings, seed int64) *workload.Stack {
		st, err := workload.BuildStack(c, s, seed)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	return lower, stack
}

// kernel returns the named workload at its default size for 16 ranks.
func kernel(t testing.TB, name string) workload.Workload {
	t.Helper()
	w, err := workload.ByName(name, 16)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func serviceOf(wp *WirePlan) StageStats {
	var s StageStats
	wp.service.into(&s)
	return s
}

// usesOf counts the phases that went through a table slot.
func usesOf(s StageStats) int64 { return s.ServiceHits + s.ServiceMisses + s.ServiceFallbacks }

// filledSlots counts the tables the plan holds, over all layouts.
func filledSlots(wp *WirePlan) (n int64) {
	for _, slots := range wp.tables.Snapshot() {
		for i := range slots {
			if slots[i].Load() != nil {
				n++
			}
		}
	}
	return n
}

// phasesOf counts the slots an op with fixed extents consumes (a metadata
// touch goes through one of its group's slots when its draw misses).
func phasesOf(op *wireOp) int64 {
	switch op.kind {
	case wIndep, wMeta:
		return 1
	case wColl:
		return int64(len(op.coll.Rounds))
	}
	return 0
}

// tableConfigs are the two shapes a data transfer takes on the wire: every
// transfer independent (one phase each), and every transfer collective with
// a buffer small enough that each runs several two-phase rounds.
func tableConfigs(t *testing.T) map[string]*params.Assignment {
	return map[string]*params.Assignment{
		"independent": mutate(t, map[string]int{params.StripingFactor: 3, params.StripingUnit: 2}),
		"collective": mutate(t, map[string]int{params.StripingFactor: 3, params.StripingUnit: 2,
			params.CollectiveWrite: 1, params.CBNodes: 2, params.CBBufferSize: 0}),
	}
}

// TestAbortedExecPublishesPrefix aborts an ExecWhile at every op index of
// a plan with empty tables, then runs the plan in full: the full run must
// be bit-identical to one on an untouched plan, reuse the tables the
// aborted prefix published, and plan only the rest — no table is built
// twice, none is lost. An abort falls between ops, so a collective
// transfer has published all of its rounds or none.
func TestAbortedExecPublishesPrefix(t *testing.T) {
	for name, a := range tableConfigs(t) {
		t.Run(name, func(t *testing.T) { abortedExecPublishesPrefix(t, a) })
	}
}

func abortedExecPublishesPrefix(t *testing.T, a *params.Assignment) {
	s := a.Settings()
	lower, stack := tableHarness(t, kernel(t, "flash"), a)
	var rt Runtime

	ref := stack(s, 9)
	refPlan := lower()
	if err := rt.Exec(refPlan, ref); err != nil {
		t.Fatal(err)
	}
	if countOps(refPlan, wIndep)+countOps(refPlan, wColl) == 0 {
		t.Fatal("flash lowered without data transfers: the test exercises nothing")
	}
	if colls, metas := countOps(refPlan, wColl), countOps(refPlan, wMeta); s.Hints.CollectiveWrite && refPlan.phases <= colls+metas {
		t.Fatalf("%d collective transfers lowered to %d rounds: multi-round publication goes untested", colls, refPlan.phases-metas)
	}
	refUses := usesOf(serviceOf(refPlan))

	for k := 0; k <= len(refPlan.ops); k++ {
		wp := lower()
		// Phases among the first k ops: what the abort publishes at the
		// least. The touches among them add a table for each (group, way
		// the draw rounded) that read, and hit it when they meet it again.
		var prefix int64
		for i := 0; i < k; i++ {
			prefix += phasesOf(&wp.ops[i])
		}
		calls := 0
		err := rt.ExecWhile(wp, stack(s, 3), func() bool { calls++; return calls <= k })
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("abort at op %d: err = %v", k, err)
		}
		aborted := serviceOf(wp)
		if aborted.ServiceMisses < prefix || aborted.ServiceMisses != filledSlots(wp) || aborted.ServiceFallbacks != 0 {
			t.Fatalf("abort at op %d: %+v, %d tables held, want >= %d built and all of them held", k, aborted, filledSlots(wp), prefix)
		}

		full := stack(s, 9)
		if err := rt.Exec(wp, full); err != nil {
			t.Fatalf("full run after abort at op %d: %v", k, err)
		}
		if full.Sim.Now() != ref.Sim.Now() {
			t.Fatalf("full run after abort at op %d: clock %v, untouched plan %v", k, full.Sim.Now(), ref.Sim.Now())
		}
		reportsEqual(t, fmt.Sprintf("after abort at op %d", k), ref.Sim.Report, full.Sim.Report)
		got := serviceOf(wp)
		if got.ServiceMisses < int64(wp.phases) || got.ServiceMisses != filledSlots(wp) || got.ServiceFallbacks != 0 {
			t.Fatalf("full run after abort at op %d: %+v, %d tables held, want >= %d built and all of them held", k, got, filledSlots(wp), wp.phases)
		}
		if hits := got.ServiceHits - aborted.ServiceHits; hits < prefix || usesOf(got) != usesOf(aborted)+refUses {
			t.Fatalf("full run after abort at op %d: %+v after %+v, want >= %d hits and %d slots used", k, got, aborted, prefix, refUses)
		}
	}
}

// countOps counts the plan's ops of one kind.
func countOps(wp *WirePlan, kind wireOpKind) int {
	n := 0
	for i := range wp.ops {
		if wp.ops[i].kind == kind {
			n++
		}
	}
	return n
}

// flipPlan hand-lowers a plan over two Lustre files whose creation order
// depends on the run's RNG: a metadata touch of file a (one item at a 50 %
// miss rate) either reads a — creating it first — or does not, in which
// case the write to b creates b first. A recorded trace cannot produce
// this (its touches are always followed by data on the same file); a wire
// plan can, and the tables must stay sound when it does.
func flipPlan() *WirePlan {
	ext := func(off, size int64, rank int) []ioreq.Extent {
		return []ioreq.Extent{{Offset: off, Size: size, Rank: rank}, {Offset: off + size + 4096, Size: size / 2, Rank: rank + 1, Count: 8}}
	}
	return &WirePlan{
		Nprocs: 16, PPN: 8, Files: []string{"a.h5", "b.h5"},
		ops: []wireOp{
			{kind: wOpen, file: 0},
			{kind: wOpen, file: 1},
			{kind: wMetaTouch, file: 0, metaItems: 1, slot: 0},
			{kind: wIndep, file: 1, isWrite: true, extents: ext(0, 3<<20, 0)},
			{kind: wIndep, file: 0, isWrite: true, extents: ext(1<<19, 5<<20, 2)},
			{kind: wIndep, file: 1, isWrite: true, extents: ext(7<<20, 1<<20, 4)},
			{kind: wIndep, file: 0, isWrite: false, extents: ext(0, 2<<20, 6)},
			{kind: wAccount, isWrite: true, bytes: 9 << 20, ops: 3},
			{kind: wBarrier, n: 16},
		},
		phases:  4,
		touches: 1,
		service: &serviceCounters{},
	}
}

// TestFlippedCreationOrderFallsBack shares one plan across seeds that
// create its two files in either order. Runs whose order differs from the
// one the tables were published under must fall back to live planning —
// and every run, hit or fallback, must match the same seed on a plan with
// no tables.
func TestFlippedCreationOrderFallsBack(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	a := mutate(t, map[string]int{params.MDCConfig: 0, params.StripingFactor: 2}) // 50 % metadata hit rate
	s := a.Settings()
	shared := flipPlan()
	var rt Runtime
	var uses int64 // slots the 24 runs go through, counted on plans of their own
	for seed := int64(1); seed <= 24; seed++ {
		run := func(wp *WirePlan) *workload.Stack {
			st, err := workload.BuildStack(c, s, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Exec(wp, st); err != nil {
				t.Fatal(err)
			}
			return st
		}
		private := flipPlan()
		got, want := run(shared), run(private)
		if got.Sim.Now() != want.Sim.Now() {
			t.Errorf("seed %d: clock %v on shared tables, %v on none", seed, got.Sim.Now(), want.Sim.Now())
		}
		reportsEqual(t, fmt.Sprintf("seed %d", seed), want.Sim.Report, got.Sim.Report)
		uses += usesOf(serviceOf(private))
	}
	// The four transfers' tables and the one a touch that reads goes through
	// (one item at 50 %: it reads one item or nothing).
	st := serviceOf(shared)
	if st.ServiceMisses != int64(shared.phases)+1 || st.ServiceMisses != filledSlots(shared) || st.ServiceHits == 0 || st.ServiceFallbacks == 0 {
		t.Fatalf("24 seeds should build each table once and both reuse and reject them: %+v", st)
	}
	if uses <= 24*int64(shared.phases) || usesOf(st) != uses {
		t.Fatalf("%d phases accounted, want %d (more than %d: some touches read)", usesOf(st), uses, 24*shared.phases)
	}
}

// metaPlan hand-lowers a plan whose metadata goes through every kind of
// slot: fixed metadata reads and a flush (wMeta), and two touch groups — one
// touched before, between and after the writes that grow the file, so its
// tables meet the file at three sizes, and one on a second file. 133 items
// miss 66.5, 26.6, 6.65 or 1.33 times at the four cache levels: every level
// reads at least one item, and rounds either way.
func metaPlan() *WirePlan {
	data := func(off int64) []ioreq.Extent {
		return []ioreq.Extent{{Offset: off, Size: 3 << 20, Rank: 0}, {Offset: off + 3<<20, Size: 3 << 20, Rank: 9}}
	}
	metaRead := hdf5.MetaReadExtents(false, 16, 8, 4, nil)
	return &WirePlan{
		Nprocs: 16, PPN: 8, Files: []string{"a.h5", "b.h5"},
		ops: []wireOp{
			{kind: wOpen, file: 0},
			{kind: wMeta, file: 0, metaItems: 4, extents: metaRead},
			{kind: wMetaTouch, file: 0, metaItems: 133, slot: 0},
			{kind: wIndep, file: 0, isWrite: true, extents: data(0)},
			{kind: wMetaTouch, file: 0, metaItems: 133, slot: 0},
			{kind: wIndep, file: 0, isWrite: true, extents: data(6 << 20)},
			{kind: wMetaTouch, file: 0, metaItems: 133, slot: 0},
			{kind: wAccount, isWrite: true, bytes: 12 << 20, ops: 2},
			{kind: wOpen, file: 1},
			{kind: wMetaTouch, file: 1, metaItems: 133, slot: int32(touchSlots)},
			{kind: wMeta, file: 0, isWrite: true, metaItems: 3,
				extents: []ioreq.Extent{{Offset: 12 << 20, Size: 1536, Rank: 0, Count: 3}}},
			{kind: wBarrier, n: 16},
		},
		phases:  4,
		touches: 2,
		service: &serviceCounters{},
	}
}

// TestMetaTablesMatchLivePlanning runs metaPlan at each metadata-cache level
// on 24 seeds, sharing one plan: every run must match — clock and every
// darshan counter — the same seed on a plan of its own, whose empty tables
// plan every phase live. The shared plan builds a table the first time a
// phase is reached, or a touch group is read at a (level, rounding), and
// charges it from then on; nothing falls back, because a read's table serves
// the file at any size.
func TestMetaTablesMatchLivePlanning(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	for level := hdf5.MDCMinimal; level <= hdf5.MDCAggressive; level++ {
		a := mutate(t, map[string]int{params.MDCConfig: int(level), params.StripingFactor: 3})
		s := a.Settings()
		if s.HDF5.MDC != level {
			t.Fatalf("mdc_conf index %d selects level %v", int(level), s.HDF5.MDC)
		}
		shared := metaPlan()
		var rt Runtime
		var uses int64
		var layout lustre.Layout
		for seed := int64(1); seed <= 24; seed++ {
			run := func(wp *WirePlan) *workload.Stack {
				st, err := workload.BuildStack(c, s, seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := rt.Exec(wp, st); err != nil {
					t.Fatal(err)
				}
				return st
			}
			before := serviceOf(shared)
			held := filledSlots(shared)
			private := metaPlan()
			got, want := run(shared), run(private)
			if got.Sim.Now() != want.Sim.Now() {
				t.Errorf("%v seed %d: clock %v on shared tables, %v on none", level, seed, got.Sim.Now(), want.Sim.Now())
			}
			reportsEqual(t, fmt.Sprintf("%v seed %d", level, seed), want.Sim.Report, got.Sim.Report)
			uses += usesOf(serviceOf(private))
			layout = got.Layout()

			// This run built exactly the tables it found missing.
			after := serviceOf(shared)
			if built := after.ServiceMisses - before.ServiceMisses; built != filledSlots(shared)-held {
				t.Fatalf("%v seed %d: built %d tables, plan holds %d more", level, seed, built, filledSlots(shared)-held)
			}
		}
		st := serviceOf(shared)
		if st.ServiceFallbacks != 0 || usesOf(st) != uses {
			t.Fatalf("%v: %+v, want %d phases through slots and no fallback", level, st, uses)
		}
		// All four phases, and both roundings of both groups at this level
		// and no other.
		slots := shared.slotsFor(layout)
		for i := range slots {
			touch := i - shared.phases
			want := touch < 0 || touch%touchSlots/2 == int(level)
			if got := slots[i].Load() != nil; got != want {
				t.Fatalf("%v: slot %d (touch slot %d) filled: %v, want %v", level, i, touch, got, want)
			}
		}
		if st.ServiceMisses != int64(shared.phases+2*shared.touches) {
			t.Fatalf("%v: %d tables built, want %d", level, st.ServiceMisses, shared.phases+2*shared.touches)
		}
	}
}

// TestLowerPlanSlotAccounting pins the slot layout LowerPlan hands the
// runtime: a slot per storage phase with fixed extents, and touch ops
// grouped by (file, items) — equal pairs share a group's slots, distinct
// pairs get disjoint ones.
func TestLowerPlanSlotAccounting(t *testing.T) {
	for name, a := range tableConfigs(t) {
		for _, w := range []string{"flash", "vpic", "bdcats"} {
			lower, _ := tableHarness(t, kernel(t, w), a)
			wp := lower()
			var phases int64
			type group struct {
				file  int32
				items int64
			}
			slotOf := map[group]int32{}
			taken := map[int32]bool{}
			for i := range wp.ops {
				op := &wp.ops[i]
				phases += phasesOf(op)
				if op.kind != wMetaTouch {
					continue
				}
				g := group{op.file, op.metaItems}
				if slot, ok := slotOf[g]; ok {
					if slot != op.slot {
						t.Fatalf("%s/%s: touches of %+v use slots %d and %d", w, name, g, slot, op.slot)
					}
					continue
				}
				if taken[op.slot] || int(op.slot)%touchSlots != 0 || int(op.slot) >= touchSlots*wp.touches {
					t.Fatalf("%s/%s: group %+v got slot %d of %d groups (taken: %v)", w, name, g, op.slot, wp.touches, taken[op.slot])
				}
				slotOf[g], taken[op.slot] = op.slot, true
			}
			if int64(wp.phases) != phases || wp.touches != len(slotOf) {
				t.Fatalf("%s/%s: plan counts %d phases and %d touch groups, its ops %d and %d", w, name, wp.phases, wp.touches, phases, len(slotOf))
			}
			if len(slotOf) == 0 || countOps(wp, wMeta) == 0 {
				t.Fatalf("%s/%s: no metadata in the plan: the test exercises nothing", w, name)
			}
			if got := len(wp.slotsFor(lustre.Layout{})); got != wp.phases+touchSlots*wp.touches {
				t.Fatalf("%s/%s: %d slots for %d phases and %d touch groups", w, name, got, wp.phases, wp.touches)
			}
		}
	}
}

// TestStagedExecConcurrentFirstTouch has 8 goroutines execute one wire
// plan whose tables are all empty, over four layouts at once, so slot
// arrays are added and tables published under contention. Every run must
// equal the same (layout, seed) on a private plan. Runs under -race in CI.
func TestStagedExecConcurrentFirstTouch(t *testing.T) {
	base := mutate(t, map[string]int{params.Alignment: 2})
	lower, stack := tableHarness(t, kernel(t, "vpic"), base)
	layouts := []params.StackSettings{
		base.Settings(),
		mutate(t, map[string]int{params.Alignment: 2, params.StripingFactor: 4}).Settings(),
		mutate(t, map[string]int{params.Alignment: 2, params.StripingFactor: 9, params.StripingUnit: 1}).Settings(),
		mutate(t, map[string]int{params.Alignment: 2, params.StripingUnit: 8, params.MDCConfig: 0}).Settings(),
	}
	seeds := []int64{1, 2, 3}
	type key struct {
		layout int
		seed   int64
	}
	want := map[key]float64{}
	var rt Runtime
	var uses int64 // slots one pass over layouts × seeds goes through
	for li, s := range layouts {
		for _, seed := range seeds {
			st := stack(s, seed)
			private := lower()
			if err := rt.Exec(private, st); err != nil {
				t.Fatal(err)
			}
			want[key{li, seed}] = st.Sim.Now()
			uses += usesOf(serviceOf(private))
		}
	}

	shared := lower()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var rt Runtime
			for i := range layouts {
				li := (i + g) % len(layouts)
				for _, seed := range seeds {
					st := stack(layouts[li], seed)
					if err := rt.Exec(shared, st); err != nil {
						errs <- err
						return
					}
					if got := st.Sim.Now(); got != want[key{li, seed}] {
						errs <- fmt.Errorf("goroutine %d layout %d seed %d: clock %v, private plan %v", g, li, seed, got, want[key{li, seed}])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := serviceOf(shared)
	if got := st.ServiceHits + st.ServiceMisses; got != goroutines*uses || st.ServiceFallbacks != 0 {
		t.Fatalf("%+v: want %d phases through slots, no fallbacks", st, goroutines*uses)
	}
	if m := shared.tables.Snapshot(); len(m) != len(layouts) {
		t.Fatalf("%d layouts hold tables, want %d", len(m), len(layouts))
	}
	for l, slots := range shared.tables.Snapshot() {
		for i := range slots[:shared.phases] {
			if slots[i].Load() == nil {
				t.Fatalf("layout %+v: slot %d still empty after %d executions", l, i, goroutines*len(layouts)*len(seeds))
			}
		}
	}
}

// TestMemBackendKeepsNoTables pins that a transfer to a /dev/shm file is
// served live and counted nowhere: only Lustre phases have tables.
func TestMemBackendKeepsNoTables(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	s := params.DefaultAssignment(params.Space()).Settings()
	build := func() *WirePlan {
		return &WirePlan{
			Nprocs: 16, PPN: 8, Files: []string{"/dev/shm/x.h5"},
			ops: []wireOp{
				{kind: wOpen, file: 0},
				{kind: wIndep, file: 0, isWrite: true, extents: []ioreq.Extent{{Offset: 0, Size: 1 << 20, Rank: 3}}},
				{kind: wAccount, isWrite: true, bytes: 1 << 20, ops: 1},
			},
			phases:  1,
			service: &serviceCounters{},
		}
	}
	wp := build()
	var rt Runtime
	var clocks [2]float64
	for i := range clocks {
		st, err := workload.BuildStack(c, s, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Exec(wp, st); err != nil {
			t.Fatal(err)
		}
		clocks[i] = st.Sim.Now()
		if st.Sim.Report.Layer("mpiio").BytesWritten != 1<<20 {
			t.Fatalf("mpiio wrote %d bytes", st.Sim.Report.Layer("mpiio").BytesWritten)
		}
	}
	if clocks[0] != clocks[1] || clocks[0] == 0 {
		t.Fatalf("clocks %v", clocks)
	}
	if got := serviceOf(wp); got != (StageStats{}) {
		t.Fatalf("mem transfer counted as table traffic: %+v", got)
	}
	for l, slots := range wp.tables.Snapshot() {
		if slots[0].Load() != nil {
			t.Fatalf("layout %+v: a table was published for a mem file", l)
		}
	}
}

// TestWarmExecAllocs pins the warm inner loop — stack reset plus execution
// from published tables — at no more than one allocation, whether the
// tables stand for independent transfers or for collective rounds. The
// stack is reset in place, as StackPool.Get does on a pooled one (sync.Pool
// itself drops items at random under the race detector).
func TestWarmExecAllocs(t *testing.T) {
	for name, a := range tableConfigs(t) {
		t.Run(name, func(t *testing.T) {
			s := a.Settings()
			lower, stack := tableHarness(t, kernel(t, "vpic"), a)
			wp := lower()
			st := stack(s, 0)
			var rt Runtime
			seed := int64(0)
			exec := func() {
				seed++
				if err := st.Reset(s, seed); err != nil {
					t.Fatal(err)
				}
				if err := rt.Exec(wp, st); err != nil {
					t.Fatal(err)
				}
			}
			exec() // fills the tables
			if allocs := testing.AllocsPerRun(50, exec); allocs > 1 {
				t.Fatalf("warm Exec allocates %.1f times per run, want <= 1", allocs)
			}
			// Each table was built once: the phases' by the first run, a
			// touch group's by the first run whose draw rounded that way.
			if st := serviceOf(wp); st.ServiceMisses != filledSlots(wp) || st.ServiceFallbacks != 0 {
				t.Fatalf("warm runs planned live: %+v, %d tables held", st, filledSlots(wp))
			}
		})
	}
}
