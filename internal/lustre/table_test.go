package lustre

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"tunio/internal/cluster"
	"tunio/internal/darshan"
	"tunio/internal/ioreq"
)

// phaseOracle is File.phase as it stood before the plan/charge split, kept
// verbatim (one loop doing integer and float work, updating f.size as it
// goes) as the reference the split implementation must reproduce bit for
// bit. Test-only: production code has the one implementation in lustre.go.
func (f *File) phaseOracle(extents []ioreq.Extent, isWrite bool) (float64, error) {
	if len(extents) == 0 {
		return 0, nil
	}
	sp := &f.fs.scratch
	sp.phaseGen++
	gen := sp.phaseGen
	sp.loadOrder = sp.loadOrder[:0]
	sp.nodeOrder = sp.nodeOrder[:0]
	procsPerNode := f.fs.sim.Cluster.ProcsPerNode
	nOSTs := f.fs.cfg.OSTs
	growStamps(&sp.loadEpoch, nOSTs-1)
	growInt64(&sp.loadBytes, nOSTs-1)
	growInt64(&sp.loadRMW, nOSTs-1)
	growInt64(&sp.loadReqs, nOSTs-1)
	growInt64(&sp.loadClis, nOSTs-1)

	maxRank := 0
	for _, e := range extents {
		if e.Rank > maxRank {
			maxRank = e.Rank
		}
	}
	if sp.cliStride < maxRank+1 || len(sp.cliEpoch) < nOSTs*sp.cliStride {
		sp.cliStride = maxRank + 1
		sp.cliEpoch = make([]uint32, nOSTs*sp.cliStride)
	}

	var appBytes int64
	for _, e := range extents {
		if err := e.Validate(); err != nil {
			return 0, err
		}
		appBytes += e.Size
		node := e.Rank / procsPerNode
		growStamps(&sp.nodeEpoch, node)
		growInt64(&sp.nodeBytes, node)
		if sp.nodeEpoch[node] != gen {
			sp.nodeEpoch[node] = gen
			sp.nodeBytes[node] = 0
			sp.nodeOrder = append(sp.nodeOrder, int32(node))
		}
		sp.nodeBytes[node] += e.Size
		for _, p := range f.split(e, f.size) {
			o := p.ost
			if sp.loadEpoch[o] != gen {
				sp.loadEpoch[o] = gen
				sp.loadBytes[o] = 0
				sp.loadRMW[o] = 0
				sp.loadReqs[o] = 0
				sp.loadClis[o] = 0
				sp.loadOrder = append(sp.loadOrder, int32(o))
			}
			sp.loadBytes[o] += p.size
			sp.loadReqs[o] += p.requests
			if cs := o*sp.cliStride + p.rank; sp.cliEpoch[cs] != gen {
				sp.cliEpoch[cs] = gen
				sp.loadClis[o]++
			}
			if isWrite {
				subSize := p.size / p.requests
				if subSize == 0 {
					subSize = p.size
				}
				edges := p.rmwEdges
				if p.requests > 1 && subSize%f.fs.cfg.RMWUnit != 0 {
					edges += p.requests / 2
				}
				sp.loadRMW[o] += edges * min64(f.fs.cfg.RMWUnit, subSize)
			}
		}
		if isWrite && e.End() > f.size {
			f.size = e.End()
		}
	}

	cfg := f.fs.cfg
	dr := f.fs.sim.Cluster.Drift
	var at, cScale float64
	if dr != nil {
		at = f.fs.sim.Time()
		cScale = dr.ContentionScale(at)
	}
	ostTime := 0.0
	var totalRequests, totalRMW int64
	for _, o := range sp.loadOrder {
		contention := 1 + cfg.ContentionFactor*float64(sp.loadClis[o]-1)
		if dr != nil {
			contention = 1 + cfg.ContentionFactor*cScale*float64(sp.loadClis[o]-1)
		}
		if contention > cfg.MaxContention {
			contention = cfg.MaxContention
		}
		bw := cfg.OSTBandwidth
		if dr != nil {
			bw *= dr.OSTFactor(at, int(o), nOSTs)
		}
		t := float64(sp.loadReqs[o])*cfg.OSTLatency +
			float64(sp.loadBytes[o]+sp.loadRMW[o])/bw*contention
		if t > ostTime {
			ostTime = t
		}
		totalRequests += sp.loadReqs[o]
		totalRMW += sp.loadRMW[o]
	}

	nicBW := f.fs.sim.Cluster.NICBandwidth
	if dr != nil {
		nicBW *= dr.NICFactor(at)
	}
	nicTime := 0.0
	for _, n := range sp.nodeOrder {
		t := float64(sp.nodeBytes[n]) / nicBW
		if t > nicTime {
			nicTime = t
		}
	}

	elapsed := ostTime
	if nicTime > elapsed {
		elapsed = nicTime
	}
	elapsed += cfg.OSTLatency
	elapsed = f.fs.sim.Perturb(elapsed)
	f.fs.sim.Advance(elapsed)

	rep := f.fs.sim.Report
	if isWrite {
		lc := rep.Layer("lustre")
		lc.WriteOps += totalRequests
		lc.BytesWritten += appBytes
		lc.BytesRead += totalRMW
		lc.WriteTime += elapsed
	} else {
		lc := rep.Layer("lustre")
		lc.ReadOps += totalRequests
		lc.BytesRead += appBytes
		lc.ReadTime += elapsed
	}
	return elapsed, nil
}

// tableCase is one randomly drawn phase and the machine it meets.
type tableCase struct {
	extents     []ioreq.Extent
	isWrite     bool
	stripeCount int
	stripeSize  int64
	priorSize   int64
	drift       bool
	epoch       float64
	seed        int64
}

func drawTableCase(r *rand.Rand, procs int) tableCase {
	counts := []int{1, 2, 3, 4, 8, 48, 248, 400 /* clamped to the pool */}
	sizes := []int64{64 << 10, 1 << 20, 16 << 20, 12345, 3 << 19}
	tc := tableCase{
		isWrite:     r.Intn(3) > 0,
		stripeCount: counts[r.Intn(len(counts))],
		stripeSize:  sizes[r.Intn(len(sizes))],
		drift:       r.Intn(2) == 0,
		epoch:       float64(r.Intn(300)),
		seed:        r.Int63(),
	}
	if r.Intn(2) == 0 {
		tc.priorSize = r.Int63n(1 << 32)
	}
	n := 1 + r.Intn(40)
	for i := 0; i < n; i++ {
		e := ioreq.Extent{
			Offset: r.Int63n(1 << 33),
			Size:   1 + r.Int63n(1<<uint(10+r.Intn(17))),
			Rank:   r.Intn(procs),
		}
		switch r.Intn(4) {
		case 0: // aligned edges
			e.Offset &^= 1<<20 - 1
			e.Size = (1 + r.Int63n(64)) << 20
		case 1: // strided: many sub-requests over a wider span
			e.Count = 2 + r.Int63n(4096)
			e.Span = e.Size * (1 + r.Int63n(8))
		}
		tc.extents = append(tc.extents, e)
	}
	return tc
}

// machine builds an FS with one file in the case's state. Every machine of
// one case is identical, down to the noise stream.
func (tc tableCase) machine(t *testing.T) (*cluster.Sim, *File, *Backend) {
	t.Helper()
	c := cluster.CoriHaswell(4, 8)
	if tc.drift {
		c.Drift = &cluster.Drift{Regimes: []cluster.Regime{
			{Start: 100, OSTLoad: 0.5, MDSLoad: 0.3, NICLoad: 0.2, Contention: 2, SlowOSTs: 60, SlowFactor: 0.4},
		}}
		if err := c.Drift.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	sim, err := cluster.NewSim(c, tc.seed)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetEpoch(tc.epoch)
	fs := newFS(t, sim)
	if _, err := fs.Create("pad", 5, 1<<20); err != nil { // move the first OST off zero
		t.Fatal(err)
	}
	b := &Backend{FS: fs, StripeCount: tc.stripeCount, StripeSize: tc.stripeSize}
	f := b.file("f")
	f.size = tc.priorSize
	return sim, f, b
}

type phaseOutcome struct {
	elapsed, clock float64
	layer          darshan.LayerCounters
	size           int64
}

func outcomeOf(elapsed float64, sim *cluster.Sim, f *File) phaseOutcome {
	return phaseOutcome{elapsed: elapsed, clock: sim.Now(), layer: *sim.Report.Layer("lustre"), size: f.size}
}

// TestPlanChargeMatchesOracle is the split's soundness proof: for random
// extents × striping × drift on/off × prior file size, plan+charge — run
// live, through an empty table slot, and from the table that run published
// — reproduces the pre-split phase: elapsed time, clock, every darshan
// counter and the file size, bit for bit.
func TestPlanChargeMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	const procs = 32
	published := 0
	for i := 0; i < 400; i++ {
		tc := drawTableCase(r, procs)

		sim, f, _ := tc.machine(t)
		d, err := f.phaseOracle(tc.extents, tc.isWrite)
		if err != nil {
			t.Fatal(err)
		}
		want := outcomeOf(d, sim, f)

		sim, f, _ = tc.machine(t)
		if d, err = f.phase(tc.extents, tc.isWrite); err != nil {
			t.Fatal(err)
		}
		if got := outcomeOf(d, sim, f); got != want {
			t.Fatalf("case %d: plan+charge\n got  %+v\n want %+v\n case %+v", i, got, want, tc)
		}

		var slot TableSlot
		for pass, wantUse := range []TableUse{TableBuilt, TableHit} {
			sim, f, b := tc.machine(t)
			d, total, use := b.PhaseVia(&slot, "f", tc.extents, tc.isWrite)
			if use != wantUse {
				t.Fatalf("case %d pass %d: use %d, want %d", i, pass, use, wantUse)
			}
			if total != ioreq.TotalBytes(tc.extents) {
				t.Fatalf("case %d pass %d: payload %d, want %d", i, pass, total, ioreq.TotalBytes(tc.extents))
			}
			if got := outcomeOf(d, sim, f); got != want {
				t.Fatalf("case %d pass %d: through the slot\n got  %+v\n want %+v\n case %+v", i, pass, got, want, tc)
			}
		}
		if pub := slot.Load(); pub != nil {
			published++
			if cap(pub.loads) != len(pub.loads) {
				t.Fatalf("case %d: published table keeps %d spare loads", i, cap(pub.loads)-len(pub.loads))
			}
		}
	}
	if published != 400 {
		t.Fatalf("published %d of 400 tables: every drawn case fits the compact loads", published)
	}
}

// TestStaleTableFallsBack pins the precondition check: a table is charged
// only against a file with the first OST, size, striping and direction it
// was planned for; anything else is planned live, matches the oracle, and
// leaves the published table alone.
func TestStaleTableFallsBack(t *testing.T) {
	tc := drawTableCase(rand.New(rand.NewSource(3)), 32)
	tc.isWrite = true
	var slot TableSlot
	_, _, b := tc.machine(t)
	if _, _, use := b.PhaseVia(&slot, "f", tc.extents, true); use != TableBuilt {
		t.Fatalf("first use %d, want built", use)
	}
	pub := slot.Load()

	// Each disturbance changes one thing the table was planned against and
	// returns the direction to run the phase in.
	stale := map[string]func(b *Backend, f *File) (isWrite bool){
		"size":      func(b *Backend, f *File) bool { f.size += 4096; return true },
		"first OST": func(b *Backend, f *File) bool { f.firstOST = (f.firstOST + 1) % b.FS.cfg.OSTs; return true },
		"striping":  func(b *Backend, f *File) bool { f.stripeSize *= 2; return true },
		"direction": func(b *Backend, f *File) bool { return false },
	}
	for name, disturb := range stale {
		simO, fO, bO := tc.machine(t)
		isWrite := disturb(bO, fO)
		d, err := fO.phaseOracle(tc.extents, isWrite)
		if err != nil {
			t.Fatal(err)
		}
		want := outcomeOf(d, simO, fO)

		sim, f, b := tc.machine(t)
		disturb(b, f)
		d, _, use := b.PhaseVia(&slot, "f", tc.extents, isWrite)
		if use != TableStale {
			t.Fatalf("%s changed: use %d, want stale", name, use)
		}
		if got := outcomeOf(d, sim, f); got != want {
			t.Fatalf("%s changed: fallback\n got  %+v\n want %+v", name, got, want)
		}
		if slot.Load() != pub {
			t.Fatalf("%s changed: fallback replaced the published table", name)
		}
	}
}

// TestWideLoadNotPublished pins the compact-field escape: a phase whose
// per-OST request count overflows 32 bits is charged exactly as before the
// split and publishes nothing, so it is planned live every time.
func TestWideLoadNotPublished(t *testing.T) {
	tc := tableCase{
		extents:     []ioreq.Extent{{Offset: 0, Size: 1 << 40, Rank: 1, Count: math.MaxUint32 + 7, Span: 1 << 41}},
		isWrite:     true,
		stripeCount: 1,
		stripeSize:  1 << 20,
		seed:        5,
	}
	sim, f, _ := tc.machine(t)
	d, err := f.phaseOracle(tc.extents, true)
	if err != nil {
		t.Fatal(err)
	}
	want := outcomeOf(d, sim, f)

	var slot TableSlot
	for pass := 0; pass < 2; pass++ {
		sim, f, b := tc.machine(t)
		d, _, use := b.PhaseVia(&slot, "f", tc.extents, true)
		if use != TableBuilt || slot.Load() != nil {
			t.Fatalf("pass %d: use %d, published %v; want built and nothing published", pass, use, slot.Load() != nil)
		}
		if got := outcomeOf(d, sim, f); got != want {
			t.Fatalf("pass %d: wide phase\n got  %+v\n want %+v", pass, got, want)
		}
	}
}

// TestLayoutResolvesStriping pins that Layout reports the striping Create
// gives a file, not the raw request.
func TestLayoutResolvesStriping(t *testing.T) {
	sim := newSim(t, 4, 8)
	fs := newFS(t, sim)
	b := &Backend{FS: fs, StripeCount: 400, StripeSize: 0}
	f := b.file("f")
	l := b.Layout()
	if l.StripeCount != f.StripeCount() || l.StripeSize != f.StripeSize() {
		t.Fatalf("layout %d/%d, file %d/%d", l.StripeCount, l.StripeSize, f.StripeCount(), f.StripeSize())
	}
	if l.OSTs != fs.cfg.OSTs || l.RMWUnit != fs.cfg.RMWUnit || l.PPN != 8 {
		t.Fatalf("layout %+v", l)
	}
}

// TestPublishedTableSize pins the retained cost of a table: an 80-byte
// header and 16 bytes per touched OST.
func TestPublishedTableSize(t *testing.T) {
	if got := unsafe.Sizeof(PhaseTable{}); got > 80 {
		t.Fatalf("PhaseTable is %d bytes, want <= 80 (one size class below 96)", got)
	}
	if got := unsafe.Sizeof(ostLoad{}); got != 16 {
		t.Fatalf("ostLoad is %d bytes, want 16", got)
	}
}

// TestEpochStampsSurviveWrap pins the scratch generations at their wrap.
// The scratch outlives FS.Reset in pooled stacks, so a long-lived session
// does reach 2³² splits; when a counter wraps, entries nothing ever stamped
// (epoch 0) and entries stamped in the counter's first generations must not
// pass for current, or a phase loses pieces and inherits client counts. The
// reference is the oracle on a machine whose counters are nowhere near.
func TestEpochStampsSurviveWrap(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const procs = 32
	for i := 0; i < 100; i++ {
		tc := drawTableCase(r, procs)
		warmup := drawTableCase(r, procs).extents
		if i%2 == 0 {
			warmup = nil // a scratch no phase has stamped yet
		}

		sim, f, _ := tc.machine(t)
		if _, err := f.phaseOracle(warmup, true); err != nil {
			t.Fatal(err)
		}
		d, err := f.phaseOracle(tc.extents, tc.isWrite)
		if err != nil {
			t.Fatal(err)
		}
		want := outcomeOf(d, sim, f)

		sim, f, _ = tc.machine(t)
		if _, err := f.phase(warmup, true); err != nil {
			t.Fatal(err)
		}
		sp := &f.fs.scratch
		sp.phaseGen = math.MaxUint32                    // the next plan wraps
		sp.slotGen = math.MaxUint32 - uint32(r.Intn(3)) // as does one of its first splits
		if d, err = f.phase(tc.extents, tc.isWrite); err != nil {
			t.Fatal(err)
		}
		if got := outcomeOf(d, sim, f); got != want {
			t.Fatalf("case %d: phase across the wrap\n got  %+v\n want %+v\n case %+v", i, got, want, tc)
		}
		if sp.phaseGen == 0 || sp.slotGen == 0 {
			t.Fatalf("case %d: generation 0 is current (phase %d, slot %d)", i, sp.phaseGen, sp.slotGen)
		}
	}
}
