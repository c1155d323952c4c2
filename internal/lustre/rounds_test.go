package lustre_test

import (
	"math"
	"math/rand"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/darshan"
	"tunio/internal/ioreq"
	"tunio/internal/lustre"
	"tunio/internal/mpiio"
	"tunio/internal/posixio"
)

// oracleCollective is mpiio.File.ExecCollective as it stood before rounds
// were given table slots — shuffle, storage phase, barrier, one mpiio record
// — with the storage phase handed in, so the Lustre reference can be the
// pre-split phaseOracle. Test-only: production has the one round loop.
func oracleCollective(sim *cluster.Sim, p *mpiio.CollPlan, isWrite bool, nprocs int, phase func([]ioreq.Extent) float64) float64 {
	elapsed := 0.0
	for _, rd := range p.Rounds {
		if isWrite {
			elapsed += sim.NetworkShuffle(rd.Bytes, p.SrcNodes, p.AggNodes, nprocs)
			elapsed += phase(rd.Extents)
		} else {
			elapsed += phase(rd.Extents)
			elapsed += sim.NetworkShuffle(rd.Bytes, p.AggNodes, p.SrcNodes, nprocs)
		}
	}
	elapsed += sim.Barrier(nprocs)
	if isWrite {
		sim.Report.AddWrite("mpiio", p.Total, elapsed)
	} else {
		sim.Report.AddRead("mpiio", p.Total, elapsed)
	}
	return elapsed
}

// roundsCase is one randomly drawn collective transfer and the machine it
// meets.
type roundsCase struct {
	plan        *mpiio.CollPlan
	hints       mpiio.Hints
	isWrite     bool
	stripeCount int
	stripeSize  int64
	priorSize   int64
	padFirst    bool // create another file first, moving this one's first OST
	drift       bool
	epoch       float64
	seed        int64
}

const (
	roundsNodes = 4
	roundsPPN   = 8
	roundsProcs = roundsNodes * roundsPPN
)

func drawRoundsCase(r *rand.Rand) roundsCase {
	counts := []int{1, 2, 3, 8, 48, 248, 400 /* clamped to the pool */}
	sizes := []int64{64 << 10, 1 << 20, 16 << 20, 12345}
	rc := roundsCase{
		hints: mpiio.Hints{
			CollectiveWrite: true, CollectiveRead: true,
			CBNodes:      []int{1, 2, 3, 4, 8, 32, 128}[r.Intn(7)],
			CBBufferSize: []int64{64 << 10, 1 << 20, 4 << 20, 16 << 20, 100000}[r.Intn(5)],
		}.Fill(roundsProcs),
		isWrite:     r.Intn(3) > 0,
		stripeCount: counts[r.Intn(len(counts))],
		stripeSize:  sizes[r.Intn(len(sizes))],
		padFirst:    r.Intn(2) == 0,
		drift:       r.Intn(2) == 0,
		epoch:       float64(r.Intn(300)),
		seed:        r.Int63(),
	}
	if r.Intn(2) == 0 {
		rc.priorSize = r.Int63n(1 << 28)
	}
	// Rank-interleaved blocks, the pattern collective buffering serves, with
	// ragged sizes, gaps and the odd strided extent.
	block := int64(1+r.Intn(512)) << uint(8+r.Intn(6))
	var extents []ioreq.Extent
	for b := 0; b < 1+r.Intn(6); b++ {
		for rank := 0; rank < roundsProcs; rank++ {
			if r.Intn(8) == 0 {
				continue
			}
			e := ioreq.Extent{Offset: (int64(b)*roundsProcs + int64(rank)) * block, Size: block - r.Int63n(block/2+1), Rank: rank}
			if r.Intn(6) == 0 {
				e.Count, e.Span = 2+r.Int63n(16), block
			}
			extents = append(extents, e)
		}
	}
	if len(extents) == 0 {
		extents = []ioreq.Extent{{Offset: 4096, Size: block, Rank: 3}}
	}
	rc.plan = mpiio.PlanCollective(extents, rc.hints, roundsProcs, roundsPPN)
	return rc
}

// machine builds the cluster, an FS with the case's file on it and an open
// MPI-IO handle on that file. Every machine of one case is identical, down
// to the noise stream.
func (rc roundsCase) machine(t *testing.T) (*cluster.Sim, *lustre.File, *mpiio.File) {
	t.Helper()
	c := cluster.CoriHaswell(roundsNodes, roundsPPN)
	if rc.drift {
		c.Drift = &cluster.Drift{Regimes: []cluster.Regime{
			{Start: 100, OSTLoad: 0.5, MDSLoad: 0.3, NICLoad: 0.2, Contention: 2, SlowOSTs: 60, SlowFactor: 0.4},
		}}
		if err := c.Drift.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	sim, err := cluster.NewSim(c, rc.seed)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetEpoch(rc.epoch)
	fs, err := lustre.New(lustre.CoriScratch(), sim)
	if err != nil {
		t.Fatal(err)
	}
	if rc.padFirst {
		if _, err := fs.Create("pad", 5, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	b := &lustre.Backend{FS: fs, StripeCount: rc.stripeCount, StripeSize: rc.stripeSize}
	f := b.File("f")
	f.SetSize(rc.priorSize)
	mpf, err := mpiio.Open(sim, b, "f", roundsProcs, rc.hints)
	if err != nil {
		t.Fatal(err)
	}
	return sim, f, mpf
}

type roundsOutcome struct {
	elapsed, clock float64
	lustre, mpiio  darshan.LayerCounters
	size           int64
}

func roundsOutcomeOf(elapsed float64, sim *cluster.Sim, f *lustre.File) roundsOutcome {
	return roundsOutcome{elapsed: elapsed, clock: sim.Now(),
		lustre: *sim.Report.Layer("lustre"), mpiio: *sim.Report.Layer("mpiio"), size: f.Size()}
}

// oracle runs the case through oracleCollective over phaseOracle.
func (rc roundsCase) oracle(t *testing.T) roundsOutcome {
	t.Helper()
	sim, f, _ := rc.machine(t)
	d := oracleCollective(sim, rc.plan, rc.isWrite, roundsProcs, func(extents []ioreq.Extent) float64 {
		d, err := f.PhaseOracle(extents, rc.isWrite)
		if err != nil {
			t.Fatal(err)
		}
		return d
	})
	return roundsOutcomeOf(d, sim, f)
}

// via runs the case through ExecCollective with the slots given.
func (rc roundsCase) via(t *testing.T, slots []lustre.TableSlot) (roundsOutcome, [lustre.TableUses]int64) {
	t.Helper()
	var uses [lustre.TableUses]int64
	sim, f, mpf := rc.machine(t)
	d := mpf.ExecCollective(rc.plan, rc.isWrite, slots, &uses)
	return roundsOutcomeOf(d, sim, f), uses
}

// TestCollectiveRoundsMatchOracle is the soundness proof of putting
// collective rounds on phase tables: for random extents × hints × layouts ×
// drift on/off × prior size × creation order, ExecCollective — live (nil
// slots), through empty slots, and from the tables that run published —
// reproduces the pre-change round loop over the pre-split phase: elapsed
// time, clock, every lustre and mpiio counter and the file size, bit for
// bit, and says truthfully how each slot was used. The subtests pin the two
// ways out of the tables: a round too wide for them and a file not on
// Lustre.
func TestCollectiveRoundsMatchOracle(t *testing.T) {
	t.Run("random", randomRoundsMatchOracle)
	t.Run("wide round not published", wideRoundNotPublished)
	t.Run("mem file keeps no tables", memRoundsKeepNoTables)
}

func randomRoundsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var rounds int64
	for i := 0; i < 300; i++ {
		rc := drawRoundsCase(r)
		n := int64(len(rc.plan.Rounds))
		rounds += n
		want := rc.oracle(t)

		got, uses := rc.via(t, nil)
		if got != want || uses != [lustre.TableUses]int64{} {
			t.Fatalf("case %d: live\n got  %+v (uses %v)\n want %+v", i, got, uses, want)
		}
		slots := make([]lustre.TableSlot, n)
		for pass, use := range []lustre.TableUse{lustre.TableBuilt, lustre.TableHit} {
			got, uses := rc.via(t, slots)
			var wantUses [lustre.TableUses]int64
			wantUses[use] = n
			if got != want || uses != wantUses {
				t.Fatalf("case %d pass %d: through the slots\n got  %+v (uses %v)\n want %+v (uses %v)\n hints %+v", i, pass, got, uses, want, wantUses, rc.hints)
			}
		}
		for j := range slots {
			if slots[j].Load() == nil {
				t.Fatalf("case %d: round %d of %d published nothing", i, j, n)
			}
		}

		// The same rounds meeting the file on another first OST — files
		// created in the other order — must not charge those tables.
		flipped := rc
		flipped.padFirst = !rc.padFirst
		want = flipped.oracle(t)
		got, uses = flipped.via(t, slots)
		if got != want || uses[lustre.TableStale] != n {
			t.Fatalf("case %d: flipped creation order\n got  %+v (uses %v)\n want %+v, all stale", i, got, uses, want)
		}
	}
	if rounds < 600 {
		t.Fatalf("only %d rounds drawn over 300 cases: the hints never split a transfer", rounds)
	}
}

// wideRoundNotPublished hands ExecCollective a plan whose first round
// overflows the compact table fields: that round is charged as ever and
// never published, its neighbour is.
func wideRoundNotPublished(t *testing.T) {
	rc := drawRoundsCase(rand.New(rand.NewSource(5)))
	rc.isWrite, rc.stripeCount, rc.stripeSize = true, 1, 1<<20
	rc.plan = &mpiio.CollPlan{
		Rounds: []mpiio.CollRound{
			{Extents: []ioreq.Extent{{Offset: 0, Size: 1 << 40, Rank: 1, Count: math.MaxUint32 + 7, Span: 1 << 41}}, Bytes: 1 << 40},
			{Extents: []ioreq.Extent{{Offset: 1 << 41, Size: 1 << 20, Rank: 8}}, Bytes: 1 << 20},
		},
		SrcNodes: roundsNodes, AggNodes: 2, Total: 1<<40 + 1<<20,
	}
	want := rc.oracle(t)
	slots := make([]lustre.TableSlot, 2)
	for pass, wantUses := range [][lustre.TableUses]int64{
		{lustre.TableBuilt: 2},
		{lustre.TableBuilt: 1, lustre.TableHit: 1},
	} {
		got, uses := rc.via(t, slots)
		if got != want || uses != wantUses {
			t.Fatalf("pass %d:\n got  %+v (uses %v)\n want %+v (uses %v)", pass, got, uses, want, wantUses)
		}
		if slots[0].Load() != nil || slots[1].Load() == nil {
			t.Fatalf("pass %d: wide round published %v, narrow round published %v", pass, slots[0].Load() != nil, slots[1].Load() != nil)
		}
	}
}

// memRoundsKeepNoTables pins that rounds against a /dev/shm file are served
// by the memory backend as ever: no slot is filled, nothing is tallied.
func memRoundsKeepNoTables(t *testing.T) {
	rc := drawRoundsCase(rand.New(rand.NewSource(8)))
	run := func(exec func(sim *cluster.Sim, mem *posixio.MemFS, mpf *mpiio.File) float64) (float64, float64, darshan.LayerCounters, darshan.LayerCounters) {
		sim, err := cluster.NewSim(cluster.CoriHaswell(roundsNodes, roundsPPN), rc.seed)
		if err != nil {
			t.Fatal(err)
		}
		mem := posixio.NewMemFS(sim)
		mpf, err := mpiio.Open(sim, mem, "/dev/shm/f", roundsProcs, rc.hints)
		if err != nil {
			t.Fatal(err)
		}
		d := exec(sim, mem, mpf)
		return d, sim.Now(), *sim.Report.Layer("mem"), *sim.Report.Layer("mpiio")
	}
	wd, wc, wm, wp := run(func(sim *cluster.Sim, mem *posixio.MemFS, _ *mpiio.File) float64 {
		return oracleCollective(sim, rc.plan, rc.isWrite, roundsProcs, func(extents []ioreq.Extent) float64 {
			if rc.isWrite {
				return mem.WritePhase("/dev/shm/f", extents)
			}
			return mem.ReadPhase("/dev/shm/f", extents)
		})
	})
	slots := make([]lustre.TableSlot, len(rc.plan.Rounds))
	var uses [lustre.TableUses]int64
	gd, gc, gm, gp := run(func(_ *cluster.Sim, _ *posixio.MemFS, mpf *mpiio.File) float64 {
		return mpf.ExecCollective(rc.plan, rc.isWrite, slots, &uses)
	})
	if gd != wd || gc != wc || gm != wm || gp != wp {
		t.Fatalf("mem rounds: elapsed %v clock %v, want %v %v\n mem   %+v\n want  %+v\n mpiio %+v\n want  %+v", gd, gc, wd, wc, gm, wm, gp, wp)
	}
	if uses != [lustre.TableUses]int64{} {
		t.Fatalf("mem rounds tallied as table traffic: %v", uses)
	}
	for i := range slots {
		if slots[i].Load() != nil {
			t.Fatalf("round %d published a table for a mem file", i)
		}
	}
}
