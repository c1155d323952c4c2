package lustre

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/ioreq"
)

// drawLoads draws the per-OST loads of one phase in one of the shapes the
// front has to get right, on distinct OSTs in a random order.
func drawLoads(r *rand.Rand) []ostLoad {
	n := 1 + r.Intn(60)
	if r.Intn(8) == 0 {
		n = 248
	}
	draw := func() ostLoad {
		return ostLoad{clients: uint16(1 + r.Intn(40)), requests: uint32(1 + r.Intn(5000)), bytes: 1 + r.Int63n(1<<32)}
	}
	loads := make([]ostLoad, n)
	switch shape := r.Intn(6); shape {
	case 0: // an evenly striped phase: every load the same
		l := draw()
		for i := range loads {
			loads[i] = l
		}
	case 1: // nearly even: a few values, many times each, some tied in a field or two
		vals := []ostLoad{draw(), draw(), draw()}
		vals[1].clients = vals[0].clients
		vals[2].bytes = vals[0].bytes
		for i := range loads {
			loads[i] = vals[r.Intn(len(vals))]
		}
	case 2: // one load at least every other, in a random place
		top := ostLoad{}
		for i := range loads {
			loads[i] = draw()
			top.clients = max(top.clients, loads[i].clients)
			top.requests = max(top.requests, loads[i].requests)
			top.bytes = max(top.bytes, loads[i].bytes)
		}
		loads[r.Intn(n)] = top
	case 3: // none dominating: clients rise as bytes fall
		for i := range loads {
			loads[i] = ostLoad{clients: uint16(1 + i), requests: uint32(1 + r.Intn(3)), bytes: int64(n-i) << 20}
		}
		r.Shuffle(n, func(i, j int) { loads[i], loads[j] = loads[j], loads[i] })
	default: // unrelated, and at the field limits
		for i := range loads {
			loads[i] = draw()
		}
		if shape == 5 {
			loads[r.Intn(n)].clients = math.MaxUint16
			loads[r.Intn(n)].requests = math.MaxUint32
		}
	}
	for i, o := range r.Perm(n) {
		loads[i].ost = uint16(o)
	}
	return loads
}

// drawConfig draws a valid file system whose contention curve some of
// drawLoads' client counts leave below the cap and some push past it.
func drawConfig(r *rand.Rand) Config {
	cfg := CoriScratch()
	cfg.OSTBandwidth = math.Exp(r.Float64()*12) * 1e5
	cfg.OSTLatency = []float64{0, 1e-6, 0.4e-3, 0.1}[r.Intn(4)]
	cfg.ContentionFactor = []float64{0, 0.015, 0.11, 3}[r.Intn(4)]
	cfg.MaxContention = []float64{1, 1.3, 4, 1000}[r.Intn(4)]
	return cfg
}

// chargeOn prices the table (or, when wide is non-nil, the wide loads) on a
// fresh machine with the given file system, drift schedule and seed.
func chargeOn(t *testing.T, cfg Config, dr *cluster.Drift, seed int64, tab *PhaseTable, wide []wideLoad) phaseOutcome {
	t.Helper()
	c := cluster.CoriHaswell(4, 8)
	c.Drift = dr
	sim, err := cluster.NewSim(c, seed)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetEpoch(150)
	fs, err := New(cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("f", 4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return outcomeOf(f.charge(tab, wide), sim, f)
}

// TestFrontChargesLikeAllLoads is the soundness proof of charging only the
// undominated loads: over random load lists × random valid configurations,
// the published table — front first, only the front priced — costs exactly
// what the unpublished one and the wide loads cost, which price every load.
// It also pins what publish promises of the front: it loses no load, holds
// no load another front load covers, and covers every load behind it.
func TestFrontChargesLikeAllLoads(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var loadsSeen, frontSeen int
	for i := 0; i < 600; i++ {
		cfg := drawConfig(r)
		tab := &PhaseTable{loads: drawLoads(r), appBytes: 1 << 20, isWrite: r.Intn(2) == 0, sizeAfter: 1 << 20}
		if r.Intn(2) == 0 {
			tab.maxNodeBytes = r.Int63n(1 << 34) // sometimes the NIC side wins
		}
		pub := tab.publish()

		front := pub.loads[:pub.front]
		if pub.front == 0 || len(pub.loads) != len(tab.loads) {
			t.Fatalf("case %d: front %d of %d loads, table had %d", i, pub.front, len(pub.loads), len(tab.loads))
		}
		count := map[ostLoad]int{}
		for _, l := range tab.loads {
			count[l]++
		}
		for j, l := range pub.loads {
			count[l]--
			covered := false
			for k, fl := range front {
				if k != j && fl.covers(l) {
					covered = true
				}
			}
			if inFront := j < len(front); covered == inFront {
				t.Fatalf("case %d: load %d %+v: in front %v, covered by another front load %v", i, j, l, inFront, covered)
			}
		}
		for l, n := range count {
			if n != 0 {
				t.Fatalf("case %d: publish changed the count of %+v by %d", i, l, -n)
			}
		}
		loadsSeen += len(pub.loads)
		frontSeen += len(front)

		wide := make([]wideLoad, len(tab.loads))
		for j, l := range tab.loads {
			wide[j] = l.widen()
		}
		seed := r.Int63()
		want := chargeOn(t, cfg, nil, seed, tab, nil)
		if got := chargeOn(t, cfg, nil, seed, pub, nil); got != want {
			t.Fatalf("case %d: front of %d\n got  %+v\n want %+v over all %d loads\n cfg %+v", i, pub.front, got, want, len(tab.loads), cfg)
		}
		if got := chargeOn(t, cfg, nil, seed, &PhaseTable{appBytes: tab.appBytes, isWrite: tab.isWrite,
			sizeAfter: tab.sizeAfter, maxNodeBytes: tab.maxNodeBytes}, wide); got != want {
			t.Fatalf("case %d: wide loads\n got  %+v\n want %+v", i, got, want)
		}
	}
	if frontSeen*4 > loadsSeen {
		t.Fatalf("fronts hold %d of %d loads: the drawn shapes exercise no saving", frontSeen, loadsSeen)
	}
}

// TestFrontOfEvenPhaseIsOne pins the case the front exists for, and that
// publish reaches it without comparing every load with every other: 248
// equal loads have a front of one.
func TestFrontOfEvenPhaseIsOne(t *testing.T) {
	tab := &PhaseTable{loads: make([]ostLoad, 248)}
	for i := range tab.loads {
		tab.loads[i] = ostLoad{ost: uint16(i), clients: 2, requests: 7, bytes: 3 << 20}
	}
	if pub := tab.publish(); pub.front != 1 {
		t.Fatalf("front of 248 equal loads is %d", pub.front)
	}
	if tab.front != 0 {
		t.Fatal("publish marked the scratch table")
	}
}

// TestDriftWalksEveryLoad pins the exception: under a drift schedule an OST
// outside the front can be the slowest — here a degraded one carrying a
// quarter of the front load's bytes at a twentieth of its bandwidth — so
// the charge must price every load, as it does for an unpublished table.
func TestDriftWalksEveryLoad(t *testing.T) {
	cfg := CoriScratch()
	dr := &cluster.Drift{Seed: 3, Regimes: []cluster.Regime{{Start: 100, SlowOSTs: 5, SlowFactor: 0.05}}}
	if err := dr.Validate(); err != nil {
		t.Fatal(err)
	}
	slow, fast := -1, -1
	for o := 0; o < cfg.OSTs; o++ {
		if dr.OSTFactor(150, o, cfg.OSTs) < 1 {
			slow = o
		} else {
			fast = o
		}
	}
	if slow < 0 || fast < 0 {
		t.Fatal("the regime degrades no OST, or all")
	}
	tab := &PhaseTable{loads: []ostLoad{
		{ost: uint16(slow), clients: 1, requests: 4, bytes: 1 << 28},
		{ost: uint16(fast), clients: 2, requests: 8, bytes: 1 << 30},
	}}
	pub := tab.publish()
	if pub.front != 1 || pub.loads[0].ost != uint16(fast) {
		t.Fatalf("front %d led by OST %d, want the one load on OST %d", pub.front, pub.loads[0].ost, fast)
	}
	want := chargeOn(t, cfg, dr, 1, tab, nil)
	if got := chargeOn(t, cfg, dr, 1, pub, nil); got != want {
		t.Fatalf("published table under drift\n got  %+v\n want %+v", got, want)
	}
	frontOnly := &PhaseTable{loads: pub.loads[:1]}
	if got := chargeOn(t, cfg, dr, 1, frontOnly, nil); got.elapsed >= want.elapsed {
		t.Fatalf("the degraded OST does not decide the phase (%v with it, %v without): the test proves nothing", want.elapsed, got.elapsed)
	}
}

// TestReadTableServesAnySize is the accepts relaxation: a read's table does
// not depend on the size of the file it was planned against — the published
// loads and totals are the same at any size, and one slot serves the file
// as it grows, bit-identical to the oracle — while a write's table still
// goes stale the moment the size differs.
func TestReadTableServesAnySize(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 200; i++ {
		tc := drawTableCase(r, 32)
		tc.isWrite = false
		var slot TableSlot
		var first *PhaseTable
		for pass, size := range []int64{tc.priorSize, 0, 12345, 1 << 20, r.Int63n(1 << 40)} {
			tc.priorSize = size
			sim, f, _ := tc.machine(t)
			d, err := f.phaseOracle(tc.extents, false)
			if err != nil {
				t.Fatal(err)
			}
			want := outcomeOf(d, sim, f)

			sim, f, b := tc.machine(t)
			d, _, use := b.PhaseVia(&slot, "f", tc.extents, false)
			if wantUse := map[bool]TableUse{true: TableBuilt, false: TableHit}[pass == 0]; use != wantUse {
				t.Fatalf("case %d at size %d: use %d, want %d", i, size, use, wantUse)
			}
			if got := outcomeOf(d, sim, f); got != want {
				t.Fatalf("case %d at size %d: through the slot\n got  %+v\n want %+v", i, size, got, want)
			}

			// What a plan at this size would publish differs from the first
			// in nothing but the sizes it notes down.
			_, f, _ = tc.machine(t)
			planned, wide, err := f.plan(tc.extents, false)
			if err != nil || wide != nil {
				t.Fatalf("case %d at size %d: plan: %v, wide %v", i, size, err, wide != nil)
			}
			pub := planned.publish()
			if first == nil {
				first = pub
				continue
			}
			norm := *pub
			norm.loads, norm.sizeBefore, norm.sizeAfter = nil, first.sizeBefore, first.sizeAfter
			ref := *first
			ref.loads = nil
			if !reflect.DeepEqual(norm, ref) || len(pub.loads) != len(first.loads) {
				t.Fatalf("case %d at size %d: table header %+v, at the first size %+v", i, size, norm, ref)
			}
			for j := range pub.loads {
				if pub.loads[j] != first.loads[j] {
					t.Fatalf("case %d at size %d: load %d is %+v, at the first size %+v", i, size, j, pub.loads[j], first.loads[j])
				}
			}
		}

		// The same extents as a write: a size mismatch is a stale table.
		tc.isWrite, tc.priorSize = true, 0
		var wslot TableSlot
		_, _, b := tc.machine(t)
		if _, _, use := b.PhaseVia(&wslot, "f", tc.extents, true); use != TableBuilt {
			t.Fatalf("case %d: first write use %d, want built", i, use)
		}
		tc.priorSize = 4096
		_, _, b = tc.machine(t)
		if _, _, use := b.PhaseVia(&wslot, "f", tc.extents, true); use != TableStale {
			t.Fatalf("case %d: write against a file 4096 bytes longer: use %d, want stale", i, use)
		}
	}
}

// TestBackendFileFollowsTheNamespace pins the one-entry file lookup to the
// map it shortcuts: alternating names, a Create that replaces the file last
// resolved, and a Reset must each resolve as the map alone would, and files
// must take their first OSTs in creation order all the same.
func TestBackendFileFollowsTheNamespace(t *testing.T) {
	fs := newFS(t, newSim(t, 2, 4))
	b := &Backend{FS: fs, StripeCount: 3, StripeSize: 1 << 20}
	a1, b1 := b.file("a"), b.file("b")
	if a1 == b1 || b.file("a") != a1 || b.file("a") != a1 || b.file("b") != b1 {
		t.Fatal("two names do not resolve to two stable files")
	}
	if a1.firstOST != 0 || b1.firstOST != 3 {
		t.Fatalf("first OSTs %d, %d, want 0, 3", a1.firstOST, b1.firstOST)
	}
	b.file("b")
	replaced, err := fs.Create("b", 5, 1<<20) // truncates: a new file under the name just resolved
	if err != nil {
		t.Fatal(err)
	}
	if got := b.file("b"); got != replaced || got.firstOST != 6 {
		t.Fatalf("after Create, b resolves to first OST %d, want the new file on 6", got.firstOST)
	}
	fs.Reset()
	if fs.Exists("b") {
		t.Fatal("Reset kept b")
	}
	if got := b.file("b"); got == replaced || got.firstOST != 0 || got.stripeCount != 3 {
		t.Fatalf("after Reset, b resolves to a file on OST %d with %d stripes, want a new one on 0 with 3", got.firstOST, got.stripeCount)
	}
}

// BenchmarkCharge prices one phase striped evenly over 24 OSTs — two loads
// differ, the first and last stripe's — from its published table (front) and
// from the unpublished one (all): what charging only the front saves a phase.
func BenchmarkCharge(b *testing.B) {
	c := cluster.CoriHaswell(4, 8)
	sim, err := cluster.NewSim(c, 1)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := New(CoriScratch(), sim)
	if err != nil {
		b.Fatal(err)
	}
	f, err := fs.Create("f", 24, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	var extents []ioreq.Extent
	for rank := 0; rank < 32; rank++ {
		extents = append(extents, ioreq.Extent{Offset: int64(rank)*(48<<20) + 4096, Size: 48 << 20, Rank: rank})
	}
	scratch, wide, err := f.plan(extents, false)
	if err != nil || wide != nil {
		b.Fatalf("plan: %v, wide %v", err, wide != nil)
	}
	all := *scratch
	all.loads = append([]ostLoad(nil), scratch.loads...)
	front := all.publish()
	if len(front.loads) != 24 || front.front > 3 {
		b.Fatalf("front %d of %d loads, want at most 3 of 24", front.front, len(front.loads))
	}
	for _, bc := range []struct {
		name string
		tab  *PhaseTable
	}{{"front", front}, {"all", &all}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.charge(bc.tab, nil)
			}
		})
	}
}
