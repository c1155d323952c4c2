package hdf5

import (
	"math"
	"strings"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/ioreq"
	"tunio/internal/lustre"
	"tunio/internal/mpiio"
	"tunio/internal/posixio"
)

// testStack builds a full sim -> lustre -> mpiio -> hdf5 stack.
func testStack(t *testing.T, nodes, ppn, stripes int, stripeSize int64, hints mpiio.Hints, cfg Config) (*cluster.Sim, *Library) {
	t.Helper()
	c := cluster.CoriHaswell(nodes, ppn)
	c.Noise = 0
	sim, err := cluster.NewSim(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := lustre.New(lustre.CoriScratch(), sim)
	if err != nil {
		t.Fatal(err)
	}
	lb := &lustre.Backend{FS: fs, StripeCount: stripes, StripeSize: stripeSize}
	mem := posixio.NewMemFS(sim)
	resolver := func(path string) ioreq.Backend {
		if posixio.IsMemPath(path) {
			return mem
		}
		return lb
	}
	lib, err := NewLibrary(sim, resolver, hints, cfg, nodes*ppn)
	if err != nil {
		t.Fatal(err)
	}
	return sim, lib
}

func TestNewLibraryValidation(t *testing.T) {
	c := cluster.CoriHaswell(1, 1)
	c.Noise = 0
	sim, _ := cluster.NewSim(c, 1)
	if _, err := NewLibrary(sim, nil, mpiio.Hints{}, DefaultConfig(), 1); err == nil {
		t.Fatal("nil backend: want error")
	}
	be := func(string) ioreq.Backend { return posixio.NewMemFS(sim) }
	if _, err := NewLibrary(sim, be, mpiio.Hints{}, DefaultConfig(), 0); err == nil {
		t.Fatal("zero procs: want error")
	}
	bad := DefaultConfig()
	bad.Alignment = -1
	if _, err := NewLibrary(sim, be, mpiio.Hints{}, bad, 1); err == nil {
		t.Fatal("bad config: want error")
	}
}

func TestConfigValidateAndDefaults(t *testing.T) {
	d := DefaultConfig()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Alignment != 1 || d.SieveBufSize != 64<<10 || d.ChunkCacheBytes != 1<<20 {
		t.Fatalf("unexpected defaults: %+v", d)
	}
	bad := d
	bad.MDC = MDCLevel(99)
	if err := bad.Validate(); err == nil {
		t.Fatal("bad MDC: want error")
	}
}

func TestMDCLevels(t *testing.T) {
	if MDCMinimal.HitRate() >= MDCAggressive.HitRate() {
		t.Fatal("hit rates not increasing")
	}
	if MDCLevel(42).HitRate() != MDCDefault.HitRate() {
		t.Fatal("unknown level should behave as default")
	}
	for _, l := range []MDCLevel{MDCMinimal, MDCDefault, MDCLarge, MDCAggressive, MDCLevel(42)} {
		if l.String() == "" {
			t.Fatal("empty String()")
		}
	}
}

func TestAlignHelper(t *testing.T) {
	planner := func(c Config) *Library {
		l, err := NewPlanner(c, 1)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	c := planner(Config{Alignment: 1 << 20, AlignmentThreshold: 64 << 10})
	if got := c.align(100, 1024); got != 100 {
		t.Fatal("below threshold must not align")
	}
	if c.Reads() != 0 {
		t.Fatalf("below threshold the alignment is not consulted, reads %b", c.Reads())
	}
	if got := c.align(100, 1<<20); got != 1<<20 {
		t.Fatalf("align = %d", got)
	}
	if c.Reads() != ReadsAlignment {
		t.Fatalf("reads %b, want the alignment", c.Reads())
	}
	if got := c.align(2<<20, 1<<20); got != 2<<20 {
		t.Fatal("already aligned must not move")
	}
	none := planner(Config{Alignment: 1})
	if got := none.align(100, 1<<20); got != 100 {
		t.Fatal("alignment 1 must be identity")
	}
	if none.Reads() != ReadsAlignment {
		t.Fatal("an alignment of 1 is a value read like any other")
	}
}

func TestCreateWriteCloseContiguous(t *testing.T) {
	sim, lib := testStack(t, 4, 32, 8, 1<<20, mpiio.Hints{CollectiveWrite: true, CBNodes: 4}, DefaultConfig())
	f, err := lib.CreateFile("/scratch/out.h5")
	if err != nil {
		t.Fatal(err)
	}
	space := mustSpace(t, []int64{128, 1 << 16}, 8) // 128 rows x 64Ki elems x 8B = 64 MiB
	ds, err := f.CreateDataset("data", space, nil)
	if err != nil {
		t.Fatal(err)
	}
	var slabs []Slab
	for r := 0; r < 128; r++ {
		slabs = append(slabs, Slab{Rank: r, Start: []int64{int64(r), 0}, Count: []int64{1, 1 << 16}})
	}
	elapsed, err := ds.Write(slabs)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatal("write charged no time")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err == nil {
		t.Fatal("double close: want error")
	}
	app := sim.Report.App()
	if app.BytesWritten != 64<<20 {
		t.Fatalf("app bytes = %d, want %d", app.BytesWritten, 64<<20)
	}
	if app.WriteOps != 128 {
		t.Fatalf("app write ops = %d, want 128 (one per H5Dwrite)", app.WriteOps)
	}
	if sim.Report.Layer("lustre").BytesWritten < 64<<20 {
		t.Fatal("data did not reach lustre")
	}
	if sim.Report.WriteBandwidth() <= 0 {
		t.Fatal("no write bandwidth")
	}
}

func TestDatasetValidation(t *testing.T) {
	_, lib := testStack(t, 1, 4, 1, 1<<20, mpiio.Hints{}, DefaultConfig())
	f, _ := lib.CreateFile("f")
	space := mustSpace(t, []int64{16, 16}, 8)
	if _, err := f.CreateDataset("", space, nil); err == nil {
		t.Fatal("empty name: want error")
	}
	if _, err := f.CreateDataset("d", space, []int64{4}); err == nil {
		t.Fatal("chunk rank mismatch: want error")
	}
	if _, err := f.CreateDataset("d", space, []int64{0, 4}); err == nil {
		t.Fatal("zero chunk dim: want error")
	}
	if _, err := f.CreateDataset("d", space, []int64{32, 4}); err == nil {
		t.Fatal("chunk larger than dim: want error")
	}
	if _, err := f.CreateDataset("d", space, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateDataset("d", space, nil); err == nil {
		t.Fatal("duplicate dataset: want error")
	}
	if _, err := f.OpenDataset("missing"); err == nil {
		t.Fatal("missing dataset: want error")
	}
	if _, err := f.OpenDataset("d"); err != nil {
		t.Fatal(err)
	}
	ds := f.datasets["d"]
	if _, err := ds.Write([]Slab{{Start: []int64{0}, Count: []int64{1}}}); err == nil {
		t.Fatal("bad slab: want error")
	}
	if e, err := ds.Write(nil); err != nil || e != 0 {
		t.Fatal("empty write should be free")
	}
}

func TestOpenFileRestoresState(t *testing.T) {
	_, lib := testStack(t, 1, 4, 1, 1<<20, mpiio.Hints{}, DefaultConfig())
	f, _ := lib.CreateFile("f")
	space := mustSpace(t, []int64{16}, 8)
	f.CreateDataset("d", space, nil)
	f.Close() // flushes metadata, which allocates
	eof := f.EOF()

	f2, err := lib.OpenFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if f2.EOF() != eof {
		t.Fatalf("EOF not restored: %d vs %d", f2.EOF(), eof)
	}
	if _, err := f2.OpenDataset("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := lib.OpenFile("nope"); err == nil {
		t.Fatal("missing file: want error")
	}
}

func TestAlignmentReducesRMW(t *testing.T) {
	write := func(alignment int64) int64 {
		cfg := DefaultConfig()
		cfg.Alignment = alignment
		sim, lib := testStack(t, 4, 32, 8, 1<<20, mpiio.Hints{}, cfg)
		f, _ := lib.CreateFile("f")
		space := mustSpace(t, []int64{64, 1 << 14}, 8) // chunk rows
		ds, err := f.CreateDataset("d", space, []int64{1, 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		var slabs []Slab
		for r := 0; r < 64; r++ {
			slabs = append(slabs, Slab{Rank: r, Start: []int64{int64(r), 0}, Count: []int64{1, 1 << 14}})
		}
		if _, err := ds.Write(slabs); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return sim.Report.Layer("lustre").BytesRead // RMW shows up as OST reads
	}
	unaligned := write(1)
	aligned := write(1 << 20)
	if aligned >= unaligned {
		t.Fatalf("alignment did not reduce RMW reads: aligned=%d unaligned=%d", aligned, unaligned)
	}
}

func TestChunkedFullCoverageAvoidsRMW(t *testing.T) {
	// Writing chunks fully covered by the phase must not fetch chunks;
	// rewriting them partially (uncached) must. Compare read ops between
	// the two (metadata misses contribute a little to both).
	readOps := func(partialRewrite bool) int64 {
		cfg := DefaultConfig()
		cfg.ChunkCacheBytes = 1024 // disable cache effects
		sim, lib := testStack(t, 4, 32, 8, 1<<20, mpiio.Hints{}, cfg)
		f, _ := lib.CreateFile("f")
		space := mustSpace(t, []int64{128, 4096}, 8)
		ds, _ := f.CreateDataset("d", space, []int64{1, 4096})
		var full, half []Slab
		for r := 0; r < 128; r++ {
			full = append(full, Slab{Rank: r, Start: []int64{int64(r), 0}, Count: []int64{1, 4096}})
			half = append(half, Slab{Rank: r, Start: []int64{int64(r), 0}, Count: []int64{1, 2048}})
		}
		if _, err := ds.Write(full); err != nil {
			t.Fatal(err)
		}
		before := sim.Report.Layer("lustre").ReadOps
		second := full
		if partialRewrite {
			second = half
		}
		if _, err := ds.Write(second); err != nil {
			t.Fatal(err)
		}
		return sim.Report.Layer("lustre").ReadOps - before
	}
	fullCov := readOps(false)
	partial := readOps(true)
	if fullCov >= partial {
		t.Fatalf("full-coverage rewrite read ops (%d) not below partial rewrite (%d)", fullCov, partial)
	}
	if partial < 128 {
		t.Fatalf("partial uncached rewrite fetched only %d chunks, want >= 128", partial)
	}
}

func TestChunkCacheAvoidsRereadOnRevisit(t *testing.T) {
	// Two partial writes to the same chunk: with a large cache the second
	// write needs no chunk fetch; with a tiny cache it does.
	run := func(cacheBytes int64) int64 {
		cfg := DefaultConfig()
		cfg.ChunkCacheBytes = cacheBytes
		sim, lib := testStack(t, 1, 4, 4, 1<<20, mpiio.Hints{}, cfg)
		f, _ := lib.CreateFile("f")
		space := mustSpace(t, []int64{4, 1 << 16}, 8) // chunk = 512 KiB
		ds, _ := f.CreateDataset("d", space, []int64{1, 1 << 16})
		half := int64(1 << 15)
		// first halves of every chunk
		var first, second []Slab
		for r := 0; r < 4; r++ {
			first = append(first, Slab{Rank: r, Start: []int64{int64(r), 0}, Count: []int64{1, half}})
			second = append(second, Slab{Rank: r, Start: []int64{int64(r), half}, Count: []int64{1, half}})
		}
		ds.Write(first)
		before := sim.Report.Layer("lustre").ReadOps
		ds.Write(second)
		return sim.Report.Layer("lustre").ReadOps - before
	}
	withCache := run(64 << 20)
	withoutCache := run(1024) // too small to hold any chunk
	if withCache != 0 {
		t.Fatalf("cached revisit still issued %d chunk-fetch reads", withCache)
	}
	if withoutCache == 0 {
		t.Fatal("uncached revisit performed no RMW fetch")
	}
}

func TestChunkedRead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChunkCacheBytes = 0 // force storage reads
	sim, lib := testStack(t, 1, 4, 4, 1<<20, mpiio.Hints{}, cfg)
	f, _ := lib.CreateFile("f")
	space := mustSpace(t, []int64{4, 4096}, 8)
	ds, _ := f.CreateDataset("d", space, []int64{1, 4096})
	var slabs []Slab
	for r := 0; r < 4; r++ {
		slabs = append(slabs, Slab{Rank: r, Start: []int64{int64(r), 0}, Count: []int64{1, 4096}})
	}
	ds.Write(slabs)
	d, err := ds.Read(slabs)
	if err != nil || d <= 0 {
		t.Fatalf("read: %v %v", d, err)
	}
	app := sim.Report.App()
	if app.ReadOps != 4 || app.BytesRead != 4*4096*8 {
		t.Fatalf("app read counters: %+v", app)
	}
}

func TestChunkedReadServedFromCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChunkCacheBytes = 64 << 20
	sim, lib := testStack(t, 1, 4, 4, 1<<20, mpiio.Hints{}, cfg)
	f, _ := lib.CreateFile("f")
	space := mustSpace(t, []int64{4, 4096}, 8)
	ds, _ := f.CreateDataset("d", space, []int64{1, 4096})
	var slabs []Slab
	for r := 0; r < 4; r++ {
		slabs = append(slabs, Slab{Rank: r, Start: []int64{int64(r), 0}, Count: []int64{1, 4096}})
	}
	ds.Write(slabs) // populates cache
	before := sim.Report.Layer("lustre").ReadOps
	ds.Read(slabs)
	if got := sim.Report.Layer("lustre").ReadOps - before; got != 0 {
		t.Fatalf("cached read still issued %d storage reads", got)
	}
}

func TestSieveBufferReducesRequestsForStridedAccess(t *testing.T) {
	reqs := func(sieve int64) int64 {
		cfg := DefaultConfig()
		cfg.SieveBufSize = sieve
		sim, lib := testStack(t, 1, 4, 4, 1<<20, mpiio.Hints{}, cfg)
		f, _ := lib.CreateFile("f")
		// column selection => many small strided segments
		space := mustSpace(t, []int64{4096, 64}, 8)
		ds, _ := f.CreateDataset("d", space, nil)
		slabs := []Slab{{Rank: 0, Start: []int64{0, 0}, Count: []int64{4096, 8}}}
		ds.Write(slabs)
		return sim.Report.Layer("lustre").WriteOps
	}
	small := reqs(0)
	large := reqs(1 << 20)
	if large >= small {
		t.Fatalf("sieve buffer did not reduce requests: %d vs %d", large, small)
	}
}

func TestCollectiveMetadataReducesMetaCost(t *testing.T) {
	metaTime := func(collOps, collWrite bool) float64 {
		cfg := DefaultConfig()
		cfg.CollMetadataOps = collOps
		cfg.CollMetadataWrite = collWrite
		sim, lib := testStack(t, 4, 32, 8, 1<<20, mpiio.Hints{}, cfg)
		f, _ := lib.CreateFile("f")
		space := mustSpace(t, []int64{128, 256}, 8)
		for i := 0; i < 8; i++ {
			name := string(rune('a' + i))
			if _, err := f.CreateDataset(name, space, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := f.OpenDataset(name); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
		lc := sim.Report.Layer("hdf5")
		return lc.MetaTime
	}
	slow := metaTime(false, false)
	fast := metaTime(true, true)
	if fast >= slow {
		t.Fatalf("collective metadata not cheaper: %.6f vs %.6f", fast, slow)
	}
}

func TestMemPathIsFasterThanLustreForSmallIO(t *testing.T) {
	run := func(path string) float64 {
		_, lib := testStack(t, 1, 4, 1, 1<<20, mpiio.Hints{}, DefaultConfig())
		f, _ := lib.CreateFile(path)
		space := mustSpace(t, []int64{512, 128}, 8)
		ds, _ := f.CreateDataset("d", space, nil)
		var total float64
		for i := 0; i < 16; i++ {
			slabs := []Slab{{Rank: 0, Start: []int64{int64(i) * 32, 0}, Count: []int64{32, 128}}}
			d, err := ds.Write(slabs)
			if err != nil {
				t.Fatal(err)
			}
			total += d
		}
		f.Close()
		return total
	}
	lus := run("/scratch/f.h5")
	mem := run("/dev/shm/f.h5")
	if mem >= lus {
		t.Fatalf("mem path %.6fs not faster than lustre %.6fs", mem, lus)
	}
}

func TestWriteToClosedFileFails(t *testing.T) {
	_, lib := testStack(t, 1, 4, 1, 1<<20, mpiio.Hints{}, DefaultConfig())
	f, _ := lib.CreateFile("f")
	space := mustSpace(t, []int64{4}, 8)
	ds, _ := f.CreateDataset("d", space, nil)
	f.Close()
	if _, err := ds.Write([]Slab{{Rank: 0, Start: []int64{0}, Count: []int64{4}}}); err == nil {
		t.Fatal("write to closed file: want error")
	}
	if _, err := f.CreateDataset("x", space, nil); err == nil {
		t.Fatal("create on closed file: want error")
	}
	if _, err := f.OpenDataset("d"); err == nil {
		t.Fatal("open dataset on closed file: want error")
	}
}

func TestLibraryAccessors(t *testing.T) {
	sim, lib := testStack(t, 2, 4, 1, 1<<20, mpiio.Hints{}, DefaultConfig())
	if lib.Nprocs() != 8 || lib.Sim() != sim {
		t.Fatal("accessors wrong")
	}
	if lib.Config().SieveBufSize != 64<<10 {
		t.Fatal("config accessor wrong")
	}
	if _, err := lib.CreateFile(""); err == nil {
		t.Fatal("empty file name: want error")
	}
}

func TestChunkCacheLRU(t *testing.T) {
	c := newChunkCache(100)
	c.insert("d", 1, 40)
	c.insert("d", 2, 40)
	if !c.contains("d", 1) || !c.contains("d", 2) {
		t.Fatal("entries missing")
	}
	c.insert("d", 1, 40) // touch 1 -> 2 becomes LRU
	c.insert("d", 3, 40) // evicts 2
	if c.contains("d", 2) {
		t.Fatal("LRU entry not evicted")
	}
	if !c.contains("d", 1) || !c.contains("d", 3) {
		t.Fatal("wrong eviction")
	}
	c.insert("d", 4, 1000) // larger than capacity: ignored
	if c.contains("d", 4) {
		t.Fatal("oversized chunk cached")
	}
}

func TestGroups(t *testing.T) {
	_, lib := testStack(t, 1, 4, 1, 1<<20, mpiio.Hints{}, DefaultConfig())
	f, _ := lib.CreateFile("g.h5")
	if err := f.CreateGroup("checkpoint"); err != nil {
		t.Fatal(err)
	}
	if !f.HasGroup("checkpoint") {
		t.Fatal("group missing")
	}
	if err := f.CreateGroup("checkpoint"); err == nil {
		t.Fatal("duplicate group: want error")
	}
	if err := f.CreateGroup(""); err == nil {
		t.Fatal("empty name: want error")
	}
	f.Close()
	if err := f.CreateGroup("late"); err == nil {
		t.Fatal("group on closed file: want error")
	}
}

func TestAttributes(t *testing.T) {
	sim, lib := testStack(t, 1, 4, 1, 1<<20, mpiio.Hints{}, DefaultConfig())
	f, _ := lib.CreateFile("a.h5")
	space := mustSpace(t, []int64{8}, 8)
	ds, _ := f.CreateDataset("d", space, nil)
	if err := f.WriteAttribute("sim_time", 0); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteAttribute("units", 1024); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAttribute("", 8); err == nil {
		t.Fatal("empty attribute name: want error")
	}
	if err := ds.WriteAttribute("", 8); err == nil {
		t.Fatal("empty dataset attribute name: want error")
	}
	// attributes are metadata: flushing at close must write them
	before := sim.Report.Layer("hdf5").MetaOps
	f.Close()
	if sim.Report.Layer("hdf5").MetaOps <= before {
		t.Fatal("attribute metadata never flushed")
	}
	if err := f.WriteAttribute("x", 8); err == nil {
		t.Fatal("attribute on closed file: want error")
	}
	if err := ds.WriteAttribute("x", 8); err == nil {
		t.Fatal("dataset attribute on closed file: want error")
	}
}

func TestGroupsAndAttributesCostMetadataOnly(t *testing.T) {
	run := func(extras bool) (int64, float64) {
		sim, lib := testStack(t, 1, 4, 1, 1<<20, mpiio.Hints{}, DefaultConfig())
		f, _ := lib.CreateFile("m.h5")
		if extras {
			for i := 0; i < 16; i++ {
				f.CreateGroup(string(rune('a' + i)))
				f.WriteAttribute(string(rune('A'+i)), 512)
			}
		}
		space := mustSpace(t, []int64{1 << 12}, 8)
		ds, _ := f.CreateDataset("d", space, nil)
		ds.Write([]Slab{{Rank: 0, Start: []int64{0}, Count: []int64{1 << 12}}})
		f.Close()
		return sim.Report.App().BytesWritten, sim.Now()
	}
	bytesPlain, timePlain := run(false)
	bytesExtra, timeExtra := run(true)
	if bytesPlain != bytesExtra {
		t.Fatalf("groups/attributes changed data bytes: %d vs %d", bytesPlain, bytesExtra)
	}
	if timeExtra <= timePlain {
		t.Fatal("metadata objects added no time")
	}
}

// phaseTracer records the application-phase callbacks and the file calls
// around them; the embedded nil Tracer panics on anything else.
type phaseTracer struct {
	Tracer
	seen []string
}

func (p *phaseTracer) OnCreateFile(name string) { p.seen = append(p.seen, "create") }
func (p *phaseTracer) OnCloseFile(name string)  { p.seen = append(p.seen, "close") }
func (p *phaseTracer) OnCompute(flops float64)  { p.seen = append(p.seen, "compute") }
func (p *phaseTracer) OnBarrier(n int)          { p.seen = append(p.seen, "barrier") }

// TestApplicationPhasesReachTheTracer checks the two calls an application
// makes between its I/O: the tracer hears of each before it is charged,
// charged like the simulation's own Compute and Barrier; the barrier the
// library takes inside a close is not the application's and is not
// reported; and a count no run could replay is refused before the tracer
// hears of it.
func TestApplicationPhasesReachTheTracer(t *testing.T) {
	sim, lib := testStack(t, 1, 4, 4, 1<<20, mpiio.Hints{}, DefaultConfig())
	ref, _ := testStack(t, 1, 4, 4, 1<<20, mpiio.Hints{}, DefaultConfig())
	tr := &phaseTracer{}
	lib.SetTracer(tr)

	lib.Compute(1e9)
	lib.Barrier(4)
	if want := ref.Compute(1e9) + ref.Barrier(4); sim.Now() != want {
		t.Errorf("clock after Compute+Barrier = %v, want %v", sim.Now(), want)
	}
	f, err := lib.CreateFile("/scratch/phases.h5")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(tr.seen, " "); got != "compute barrier create close" {
		t.Errorf("tracer saw %q", got)
	}

	// The same on a planning library: a recorded trace always marshals.
	planner, err := NewPlanner(DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	planner.SetTracer(tr)
	tr.seen = nil
	for _, l := range []*Library{lib, planner} {
		for i, call := range []func(){
			func() { l.Barrier(0) },
			func() { l.Barrier(-3) },
			func() { l.Compute(-1) },
			func() { l.Compute(math.Inf(1)) },
			func() { l.Compute(math.NaN()) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("call %d (planning: %v): want panic on a count no run can replay", i, l == planner)
					}
				}()
				call()
			}()
		}
	}
	if len(tr.seen) != 0 {
		t.Errorf("tracer heard of refused calls: %v", tr.seen)
	}
}
