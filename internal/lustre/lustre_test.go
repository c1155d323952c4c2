package lustre

import (
	"math"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/ioreq"
)

func newSim(t *testing.T, nodes, ppn int) *cluster.Sim {
	t.Helper()
	c := cluster.CoriHaswell(nodes, ppn)
	c.Noise = 0
	s, err := cluster.NewSim(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newFS(t *testing.T, sim *cluster.Sim) *FS {
	t.Helper()
	fs, err := New(CoriScratch(), sim)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestConfigValidate(t *testing.T) {
	good := CoriScratch()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.OSTs = 0 },
		func(c *Config) { c.OSTBandwidth = 0 },
		func(c *Config) { c.RMWUnit = 0 },
		func(c *Config) { c.MDSParallel = 0 },
		func(c *Config) { c.MaxContention = 0.5 },
		func(c *Config) { c.ContentionFactor = -1 },
		// every comparison with NaN is false, so range checks alone let it by
		func(c *Config) { c.OSTBandwidth = math.NaN() },
		func(c *Config) { c.OSTBandwidth = math.Inf(1) },
		func(c *Config) { c.OSTLatency = math.NaN() },
		func(c *Config) { c.OSTLatency = math.Inf(1) },
		func(c *Config) { c.MDSLatency = math.NaN() },
		func(c *Config) { c.ContentionFactor = math.NaN() },
		func(c *Config) { c.ContentionFactor = math.Inf(1) },
		func(c *Config) { c.MaxContention = math.NaN() },
		func(c *Config) { c.MaxContention = math.Inf(1) },
	}
	for i, mut := range cases {
		c := CoriScratch()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestCreateDefaultsAndClamping(t *testing.T) {
	fs := newFS(t, newSim(t, 4, 32))
	f, err := fs.Create("a", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.StripeCount() != 1 || f.StripeSize() != 1<<20 {
		t.Fatalf("defaults: count=%d size=%d", f.StripeCount(), f.StripeSize())
	}
	f2, _ := fs.Create("b", 10000, 1<<20)
	if f2.StripeCount() != fs.Config().OSTs {
		t.Fatalf("stripe count not clamped: %d", f2.StripeCount())
	}
	if _, err := fs.Create("", 1, 1); err == nil {
		t.Fatal("empty name: want error")
	}
}

func TestOpen(t *testing.T) {
	fs := newFS(t, newSim(t, 4, 32))
	if _, err := fs.Open("missing"); err == nil {
		t.Fatal("want error for missing file")
	}
	fs.Create("x", 4, 1<<20)
	if !fs.Exists("x") {
		t.Fatal("Exists false after Create")
	}
	if _, err := fs.Open("x"); err != nil {
		t.Fatal(err)
	}
}

func TestStripingSpeedsUpLargeWrites(t *testing.T) {
	// The same 1 GiB phase must be much faster on 32 stripes than 1 when
	// the NIC is not the bottleneck (use many nodes).
	mkTime := func(stripes int) float64 {
		sim := newSim(t, 64, 2)
		fs := newFS(t, sim)
		f, _ := fs.Create("f", stripes, 1<<20)
		var extents []ioreq.Extent
		const per = 8 << 20
		for r := 0; r < 128; r++ {
			extents = append(extents, ioreq.Extent{Offset: int64(r) * per, Size: per, Rank: r})
		}
		d, err := f.WritePhase(extents)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	t1 := mkTime(1)
	t32 := mkTime(32)
	if t32 >= t1/4 {
		t.Fatalf("striping 32 gave %.4fs vs 1-stripe %.4fs, want >= 4x speedup", t32, t1)
	}
}

func TestAlignedWritesAvoidRMW(t *testing.T) {
	run := func(offset int64) int64 {
		sim := newSim(t, 4, 32)
		fs := newFS(t, sim)
		f, _ := fs.Create("f", 4, 1<<20)
		// pre-size the file so trailing-edge RMW applies
		f.WritePhase([]ioreq.Extent{{Offset: 0, Size: 64 << 20, Rank: 0}})
		before := sim.Report.Layer("lustre").BytesRead
		f.WritePhase([]ioreq.Extent{{Offset: offset, Size: 1 << 20, Rank: 1}})
		return sim.Report.Layer("lustre").BytesRead - before
	}
	if rmw := run(4 << 20); rmw != 0 {
		t.Fatalf("aligned write caused %d RMW bytes", rmw)
	}
	if rmw := run(4<<20 + 4096); rmw == 0 {
		t.Fatal("unaligned write caused no RMW")
	}
}

func TestSmallStripesCostMoreRequests(t *testing.T) {
	reqs := func(stripeSize int64) int64 {
		sim := newSim(t, 4, 32)
		fs := newFS(t, sim)
		f, _ := fs.Create("f", 8, stripeSize)
		f.WritePhase([]ioreq.Extent{{Offset: 0, Size: 64 << 20, Rank: 0}})
		return sim.Report.Layer("lustre").WriteOps
	}
	small := reqs(64 << 10)
	large := reqs(16 << 20)
	if small <= large {
		t.Fatalf("64KiB stripes made %d requests, 16MiB made %d; want more for small", small, large)
	}
}

func TestContentionDegradesSharedOST(t *testing.T) {
	// Many clients writing to a 1-stripe file must be slower per byte than
	// one client writing the same total.
	run := func(clients int) float64 {
		sim := newSim(t, 64, 2)
		fs := newFS(t, sim)
		f, _ := fs.Create("f", 1, 1<<20)
		total := int64(256 << 20)
		per := total / int64(clients)
		var extents []ioreq.Extent
		for r := 0; r < clients; r++ {
			extents = append(extents, ioreq.Extent{Offset: int64(r) * per, Size: per, Rank: r})
		}
		d, _ := f.WritePhase(extents)
		return d
	}
	if one, many := run(1), run(64); many <= one {
		t.Fatalf("64 clients (%.4fs) not slower than 1 (%.4fs)", many, one)
	}
}

func TestPhaseAdvancesClockAndCounters(t *testing.T) {
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	f, _ := fs.Create("f", 4, 1<<20)
	before := sim.Now()
	d, err := f.WritePhase([]ioreq.Extent{{Offset: 0, Size: 1 << 20, Rank: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || math.Abs(sim.Now()-before-d) > 1e-12 {
		t.Fatalf("elapsed %v, clock moved %v", d, sim.Now()-before)
	}
	lc := sim.Report.Layer("lustre")
	if lc.BytesWritten != 1<<20 || lc.WriteOps == 0 {
		t.Fatalf("counters: %+v", lc)
	}
	if f.Size() != 1<<20 {
		t.Fatalf("file size = %d", f.Size())
	}
}

func TestReadPhase(t *testing.T) {
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	f, _ := fs.Create("f", 4, 1<<20)
	f.WritePhase([]ioreq.Extent{{Offset: 0, Size: 8 << 20, Rank: 0}})
	d, err := f.ReadPhase([]ioreq.Extent{{Offset: 0, Size: 8 << 20, Rank: 1}})
	if err != nil || d <= 0 {
		t.Fatalf("ReadPhase: %v, %v", d, err)
	}
	if sim.Report.Layer("lustre").BytesRead != 8<<20 {
		t.Fatalf("read bytes = %d", sim.Report.Layer("lustre").BytesRead)
	}
}

func TestInvalidExtentRejected(t *testing.T) {
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	f, _ := fs.Create("f", 4, 1<<20)
	if _, err := f.WritePhase([]ioreq.Extent{{Offset: -1, Size: 4}}); err == nil {
		t.Fatal("want error")
	}
	if d, err := f.WritePhase(nil); err != nil || d != 0 {
		t.Fatal("empty phase should be free")
	}
}

func TestMetaOps(t *testing.T) {
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	if fs.MetaOps(0, 1) != 0 {
		t.Fatal("zero ops should be free")
	}
	d1 := fs.MetaOps(1, 1)
	d100 := fs.MetaOps(100, 128)
	if d100 <= d1 {
		t.Fatalf("100 meta ops (%.6fs) not slower than 1 (%.6fs)", d100, d1)
	}
	// create + 101 explicit
	if got := sim.Report.Layer("lustre").MetaOps; got != 101 {
		t.Fatalf("meta ops counted = %d", got)
	}
}

func TestBackendAutoCreates(t *testing.T) {
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	b := &Backend{FS: fs, StripeCount: 8, StripeSize: 2 << 20}
	d := b.WritePhase("auto", []ioreq.Extent{{Offset: 0, Size: 1 << 20, Rank: 0}})
	if d <= 0 {
		t.Fatal("backend write did not charge time")
	}
	f, err := fs.Open("auto")
	if err != nil {
		t.Fatal(err)
	}
	if f.StripeCount() != 8 || f.StripeSize() != 2<<20 {
		t.Fatalf("auto-created striping: %d/%d", f.StripeCount(), f.StripeSize())
	}
	if b.Name() != "lustre" {
		t.Fatal("backend name")
	}
	if b.ReadPhase("auto", []ioreq.Extent{{Offset: 0, Size: 100, Rank: 0}}) <= 0 {
		t.Fatal("backend read free")
	}
	if b.MetaOps(1, 1) <= 0 {
		t.Fatal("backend meta free")
	}
}

func TestFilesStartOnDifferentOSTs(t *testing.T) {
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	a, _ := fs.Create("a", 4, 1<<20)
	b, _ := fs.Create("b", 4, 1<<20)
	if a.firstOST == b.firstOST {
		t.Fatal("allocator did not round-robin starting OSTs")
	}
}

func TestSplitCrossesStripes(t *testing.T) {
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	f, _ := fs.Create("f", 4, 1<<20)
	pieces := f.split(ioreq.Extent{Offset: 512 << 10, Size: 2 << 20, Rank: 0}, f.size)
	if len(pieces) != 3 {
		t.Fatalf("split produced %d pieces, want 3 (partial + full + partial)", len(pieces))
	}
	var total int64
	osts := map[int]bool{}
	for _, p := range pieces {
		total += p.size
		osts[p.ost] = true
	}
	if total != 2<<20 {
		t.Fatalf("split lost bytes: %d", total)
	}
	if len(osts) != 3 {
		t.Fatalf("pieces landed on %d OSTs, want 3", len(osts))
	}
}

func TestSplitAggregatedPathConservesBytes(t *testing.T) {
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	f, _ := fs.Create("f", 8, 64<<10) // small stripes force the aggregated path
	e := ioreq.Extent{Offset: 12345, Size: 512 << 20, Rank: 3, Count: 64}
	pieces := f.split(e, f.size)
	if len(pieces) > 8 {
		t.Fatalf("aggregated split produced %d pieces, want <= stripe count 8", len(pieces))
	}
	var total, reqs int64
	for _, p := range pieces {
		total += p.size
		reqs += p.requests
		if p.rank != 3 {
			t.Fatal("rank lost")
		}
	}
	if total != 512<<20 {
		t.Fatalf("split lost bytes: %d of %d", total, 512<<20)
	}
	if reqs < 8 || reqs > 80 {
		t.Fatalf("requests distributed oddly: %d (extent had 64)", reqs)
	}
}

func TestSplitExactVsAggregatedConsistency(t *testing.T) {
	// The same extent split with a small stripe span (exact path) and the
	// same total via aggregation must agree on per-OST byte totals.
	sim := newSim(t, 4, 32)
	fs := newFS(t, sim)
	f, _ := fs.Create("f", 4, 1<<20)
	// 9 stripes: aggregated path (9 > 2*4); compare against manual walk.
	e := ioreq.Extent{Offset: 0, Size: 9 << 20, Rank: 0}
	got := map[int]int64{}
	for _, p := range f.split(e, f.size) {
		got[p.ost] += p.size
	}
	want := map[int]int64{}
	for s := int64(0); s < 9; s++ {
		ost := (f.firstOST + int(s%4)) % fs.Config().OSTs
		want[ost] += 1 << 20
	}
	for ost, b := range want {
		if got[ost] != b {
			t.Fatalf("OST %d: got %d bytes, want %d (got map %v)", ost, got[ost], b, got)
		}
	}
}
