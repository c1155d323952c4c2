package lustre

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/ioreq"
)

// planCase is one phase and the file it meets.
type planCase struct {
	extents     []ioreq.Extent
	isWrite     bool
	stripeCount int
	stripeSize  int64
	rmwUnit     int64
	osts        int
	priorSize   int64
}

const planCaseProcs = 32 // 4 nodes of 8

// file builds a fresh FS holding the case's file, first OST off zero.
func (pc planCase) file(t testing.TB) *File {
	t.Helper()
	sim, err := cluster.NewSim(cluster.CoriHaswell(4, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CoriScratch()
	cfg.OSTs, cfg.RMWUnit = pc.osts, pc.rmwUnit
	fs, err := New(cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("pad", 5, 1<<20); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("f", pc.stripeCount, pc.stripeSize)
	if err != nil {
		t.Fatal(err)
	}
	f.size = pc.priorSize
	return f
}

// drawPlanCase draws a phase over the layouts and extent shapes the planner
// tells apart: stripe counts on both sides of every extent's stripe span,
// stripe sizes and RAID segments that are and are not powers of two, a pool
// smaller than the stripe count asked for, dense, strided and multi-request
// extents from a byte to 8 GiB at unaligned offsets, and a prior file size
// on either side of some extent's trailing edge.
func drawPlanCase(r *rand.Rand) planCase {
	counts := []int{1, 2, 12, 80, 248}
	sizes := []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 128 << 20, 3 * 64 << 10, 1_000_000}
	pc := planCase{
		isWrite:     r.Intn(4) > 0,
		stripeCount: counts[r.Intn(len(counts))],
		stripeSize:  sizes[r.Intn(len(sizes))],
		rmwUnit:     []int64{1 << 20, 1000}[r.Intn(2)],
		osts:        []int{248, 7}[r.Intn(2)],
	}
	n := 1 + r.Intn(24)
	rank := r.Intn(planCaseProcs)
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			rank = r.Intn(planCaseProcs) // else: a run of one rank's extents
		}
		e := ioreq.Extent{
			Offset: r.Int63n(1 << uint(10+r.Intn(30))),
			Size:   1 + r.Int63n(1<<uint(r.Intn(34))),
			Rank:   rank,
		}
		switch r.Intn(6) {
		case 0: // on the stripe and RAID grids
			e.Offset -= e.Offset % pc.stripeSize
			e.Size = (1 + r.Int63n(40)) * pc.stripeSize
		case 1: // strided: payload scattered over a wider footprint
			e.Span = e.Size + r.Int63n(8*e.Size)
			e.Count = r.Int63n(3) * (1 + r.Int63n(4096))
		case 2: // dense, issued as many sub-requests
			e.Count = 2 + r.Int63n(1<<uint(1+r.Intn(33)))
		}
		pc.extents = append(pc.extents, e)
	}
	switch e := pc.extents[r.Intn(n)]; r.Intn(4) {
	case 0: // empty file: every write appends
	case 1:
		pc.priorSize = r.Int63n(1 << 34)
	case 2: // just short of, at, or just past a trailing edge
		pc.priorSize = e.Offset + e.SpanLen() + int64(r.Intn(3)-1)
	case 3: // inside the extent: some stripe ends fall on either side
		pc.priorSize = e.Offset + r.Int63n(e.SpanLen()+1)
	}
	return pc
}

// checkPlan plans the case with File.plan and with the split oracle, each
// on a file of its own, and holds the scratch table, the wide loads and the
// published table to the oracle's field by field.
func checkPlan(t testing.TB, pc planCase) {
	t.Helper()
	want, wantWide, wantErr := pc.file(t).planOracle(pc.extents, pc.isWrite)
	got, gotWide, gotErr := pc.file(t).plan(pc.extents, pc.isWrite)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("plan error %v, oracle %v\ncase %+v", gotErr, wantErr, pc)
	}
	if wantErr != nil {
		return
	}
	diff := func(what string, got, want *PhaseTable) {
		t.Helper()
		if !slices.Equal(got.loads, want.loads) {
			t.Fatalf("%s loads\n got  %v\n want %v\ncase %+v", what, got.loads, want.loads, pc)
		}
		g, w := *got, *want
		g.loads, w.loads = nil, nil
		if fmt.Sprintf("%+v", g) != fmt.Sprintf("%+v", w) {
			t.Fatalf("%s header\n got  %+v\n want %+v\ncase %+v", what, g, w, pc)
		}
	}
	diff("scratch", got, want)
	if !slices.Equal(gotWide, wantWide) || (gotWide == nil) != (wantWide == nil) {
		t.Fatalf("wide loads\n got  %v\n want %v\ncase %+v", gotWide, wantWide, pc)
	}
	if wantWide == nil {
		diff("published", got.publish(), want.publish())
	}
}

// TestPlanMatchesSplitOracle is the one-pass planner's soundness proof: on
// seeded random phases over every class of layout and extent it tells apart,
// the table it builds is the split oracle's — loads in first-touch order,
// totals, sizes, the wide escape, and after publishing the front.
func TestPlanMatchesSplitOracle(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 3000; i++ {
		checkPlan(t, drawPlanCase(r))
	}
	// the wide escape, which no drawn case reaches
	checkPlan(t, planCase{
		extents:     []ioreq.Extent{{Offset: 0, Size: 1 << 40, Rank: 1, Count: 1<<32 + 7, Span: 1 << 41}},
		isWrite:     true,
		stripeCount: 1, stripeSize: 1 << 20, rmwUnit: 1 << 20, osts: 248,
	})
	// an invalid extent is refused with the oracle's error
	checkPlan(t, planCase{
		extents:     []ioreq.Extent{{Offset: 0, Size: 8}, {Offset: -1, Size: 8}},
		stripeCount: 2, stripeSize: 1 << 20, rmwUnit: 1 << 20, osts: 248,
	})
}

// extentRecord is the fuzz encoding of one extent: offset, size, span and
// count as little-endian words, then the rank.
const extentRecord = 4*8 + 1

func encodeExtents(extents []ioreq.Extent) []byte {
	var raw []byte
	for _, e := range extents {
		for _, v := range []int64{e.Offset, e.Size, e.Span, e.Count} {
			raw = binary.LittleEndian.AppendUint64(raw, uint64(v))
		}
		raw = append(raw, byte(e.Rank))
	}
	return raw
}

// FuzzPlan holds File.plan to the split oracle on whatever layout and
// extents the fuzzer finds. Values are folded into the range where the
// oracle's stripe walk terminates (offset + footprint cannot wrap); inside
// it nothing is off limits — zero and negative sizes are refused alike, and
// products that wrap in the oracle wrap in the planner.
func FuzzPlan(f *testing.F) {
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 24; i++ {
		pc := drawPlanCase(r)
		f.Add(uint16(pc.stripeCount), pc.stripeSize, pc.rmwUnit, uint8(pc.osts), pc.priorSize, pc.isWrite, encodeExtents(pc.extents))
	}
	f.Fuzz(func(t *testing.T, stripeCount uint16, stripeSize, rmwUnit int64, osts uint8, priorSize int64, isWrite bool, raw []byte) {
		const offsetBits, lengthBits = 1<<50 - 1, 1<<42 - 1
		pc := planCase{
			isWrite:     isWrite,
			stripeCount: int(stripeCount),
			stripeSize:  1 + stripeSize&(1<<32-1),
			rmwUnit:     1 + rmwUnit&(1<<24-1),
			osts:        1 + int(osts),
			priorSize:   priorSize & offsetBits,
		}
		for ; len(raw) >= extentRecord && len(pc.extents) < 64; raw = raw[extentRecord:] {
			word := func(i int) int64 { return int64(binary.LittleEndian.Uint64(raw[8*i:])) }
			e := ioreq.Extent{Offset: word(0), Size: word(1), Span: word(2) & lengthBits, Count: word(3), Rank: int(raw[32]) % planCaseProcs}
			if e.Offset > 0 {
				e.Offset &= offsetBits
			}
			if e.Size > 0 {
				e.Size &= lengthBits
			}
			pc.extents = append(pc.extents, e)
		}
		checkPlan(t, pc)
	})
}

// BenchmarkPlanFill times the first-touch fill of one phase table: a
// 2048-extent VPIC-shaped write (every rank of a 128-rank job appends its
// 16 variable blocks, dense, 1 MiB + 24 B apart) planned from scratch under
// stripe counts 1, 12 and 248 of 1 MiB stripes.
func BenchmarkPlanFill(b *testing.B) {
	const ranks, vars, block = 128, 16, 1<<20 + 24
	extents := make([]ioreq.Extent, 0, ranks*vars)
	for v := 0; v < vars; v++ {
		for r := 0; r < ranks; r++ {
			extents = append(extents, ioreq.Extent{Offset: int64(v*ranks+r) * block, Size: block, Rank: r})
		}
	}
	for _, count := range []int{1, 12, 248} {
		b.Run(fmt.Sprintf("stripes=%d", count), func(b *testing.B) {
			sim, err := cluster.NewSim(cluster.CoriHaswell(4, 32), 1)
			if err != nil {
				b.Fatal(err)
			}
			fs, err := New(CoriScratch(), sim)
			if err != nil {
				b.Fatal(err)
			}
			f, err := fs.Create("f", count, 1<<20)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, _, err := f.plan(extents, true)
				if err != nil {
					b.Fatal(err)
				}
				planFillSink = t.publish()
			}
		})
	}
}

var planFillSink *PhaseTable
