// Package lustre simulates a Lustre-like parallel file system: a pool of
// object storage targets (OSTs) that files are striped across, plus a
// metadata server (MDS).
//
// The model captures the effects that make Lustre tuning matter in the
// paper's experiments:
//
//   - stripe count decides how many OSTs serve a file in parallel (the
//     Lustre default of 1 is the classic untuned bottleneck);
//   - stripe size decides how extents split into per-OST requests: too
//     small multiplies per-request latency, too large causes imbalance;
//   - writes not aligned to the RAID segment pay a read-modify-write
//     penalty at the OST;
//   - many clients interleaving requests on one OST degrade its effective
//     bandwidth (contention);
//   - every open/create/stat costs an MDS round trip, so metadata storms
//     from thousands of ranks are expensive unless issued collectively.
//
// Phase cost = max(client-side NIC time, slowest OST service time): the
// network transfer and OST service overlap in a pipelined fashion.
package lustre

import (
	"fmt"
	"math"
	"math/bits"

	"tunio/internal/cluster"
	"tunio/internal/darshan"
	"tunio/internal/ioreq"
)

// Config describes the file system hardware.
type Config struct {
	OSTs             int
	OSTBandwidth     float64 // bytes/second per OST
	OSTLatency       float64 // seconds per request
	RMWUnit          int64   // RAID segment size; unaligned write edges pay RMW
	MDSLatency       float64 // seconds per metadata op
	MDSParallel      int     // concurrent MDS service streams
	ContentionFactor float64 // bandwidth degradation per extra client on an OST
	MaxContention    float64 // cap on the contention multiplier
}

// Validate reports configuration errors. File.charge prices only a phase's
// undominated loads (PhaseTable.front), which is exact because the time an
// OST takes never falls as its clients, requests or bytes rise: that needs
// ContentionFactor >= 0, OSTLatency >= 0, OSTBandwidth > 0 and
// MaxContention >= 1, all finite, and Validate is what guarantees them.
func (c Config) Validate() error {
	if c.OSTs <= 0 {
		return fmt.Errorf("lustre: OSTs must be positive, got %d", c.OSTs)
	}
	for _, v := range []float64{c.OSTBandwidth, c.OSTLatency, c.MDSLatency, c.ContentionFactor, c.MaxContention} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("lustre: timing and contention constants must be finite, got %v", v)
		}
	}
	if c.OSTBandwidth <= 0 || c.OSTLatency < 0 || c.MDSLatency < 0 {
		return fmt.Errorf("lustre: invalid timing constants")
	}
	if c.RMWUnit <= 0 {
		return fmt.Errorf("lustre: RMWUnit must be positive, got %d", c.RMWUnit)
	}
	if c.MDSParallel <= 0 {
		return fmt.Errorf("lustre: MDSParallel must be positive, got %d", c.MDSParallel)
	}
	if c.ContentionFactor < 0 || c.MaxContention < 1 {
		return fmt.Errorf("lustre: invalid contention model")
	}
	return nil
}

// CoriScratch returns a configuration calibrated to Cori's scratch file
// system (~248 OSTs, ~700 GB/s aggregate, DataDirect RAID with 1 MiB
// segments).
func CoriScratch() Config {
	return Config{
		OSTs:             248,
		OSTBandwidth:     2.8e9,
		OSTLatency:       0.4e-3,
		RMWUnit:          1 << 20,
		MDSLatency:       0.25e-3,
		MDSParallel:      4,
		ContentionFactor: 0.015,
		MaxContention:    4,
	}
}

// FS is a simulated Lustre file system bound to one simulation context.
type FS struct {
	cfg   Config
	sim   *cluster.Sim
	files map[string]*File
	last  *File // the file Backend.file resolved last, nil once it may be stale
	// nextOST round-robins the starting OST of new files, like Lustre's
	// allocator spreading files across the pool.
	nextOST int

	// Scratch state reused across plan calls. Access to one FS is
	// serialized (the simulation advances a single clock), so phases never
	// run concurrently; concurrent tuning evaluations each build their own
	// stack and FS. Epoch stamps make resets O(touched) instead of O(OSTs).
	scratch phaseScratch
}

// phaseScratch holds the dense accumulators plan reuses call to call,
// replacing the per-call maps that dominated the evaluation hot path.
// Epoch stamps mark which entries belong to the current extent/phase, so a
// "reset" is a counter increment rather than a clear. Generation 0 is what
// untouched stamps hold and is never current: the scratch outlives FS.Reset
// in pooled stacks, so the counters do wrap, and nextSlotGen/nextPhaseGen
// then clear the stamps and restart at 1.
type phaseScratch struct {
	// Per-extent slot accumulation (planner.slotted), indexed by
	// stripe%stripeCount. slotOrder keeps first-touch order: the last touched
	// slot absorbs the payload rounding remainder.
	slotEpoch []uint32
	slotSpan  []int64
	slotEdges []int64
	slotOrder []int32
	slotGen   uint32

	// Per-phase OST load accumulation, indexed by OST.
	loadEpoch []uint32
	loadBytes []int64
	loadRMW   []int64
	loadReqs  []int64
	loadClis  []int64 // distinct clients touching the OST
	loadOrder []int32

	// Distinct-client stamps, indexed by OST*cliStride+rank.
	cliEpoch  []uint32
	cliStride int

	// Per-phase per-node byte totals, indexed by node.
	nodeEpoch []uint32
	nodeBytes []int64
	nodeOrder []int32

	phaseGen uint32

	// plan's output on the live path: the table charge reads next, valid
	// until the following plan.
	table PhaseTable
	wide  []wideLoad
}

// nextSlotGen starts a new extent in planner.slotted.
func (sp *phaseScratch) nextSlotGen() uint32 {
	sp.slotGen++
	if sp.slotGen == 0 {
		clear(sp.slotEpoch)
		sp.slotGen = 1
	}
	return sp.slotGen
}

// nextPhaseGen starts a new phase in plan.
func (sp *phaseScratch) nextPhaseGen() uint32 {
	sp.phaseGen++
	if sp.phaseGen == 0 {
		clear(sp.loadEpoch)
		clear(sp.cliEpoch)
		clear(sp.nodeEpoch)
		sp.phaseGen = 1
	}
	return sp.phaseGen
}

// grow ensures the epoch/value slice pair covers index n.
func growStamps(epoch *[]uint32, n int) {
	if n < len(*epoch) {
		return
	}
	ne := make([]uint32, n+1)
	copy(ne, *epoch)
	*epoch = ne
}

func growInt64(vals *[]int64, n int) {
	if n < len(*vals) {
		return
	}
	nv := make([]int64, n+1)
	copy(nv, *vals)
	*vals = nv
}

// New builds a file system.
func New(cfg Config, sim *cluster.Sim) (*FS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FS{cfg: cfg, sim: sim, files: make(map[string]*File)}, nil
}

// Config returns the file system configuration.
func (fs *FS) Config() Config { return fs.cfg }

// File is one striped file.
type File struct {
	fs          *FS
	name        string
	stripeCount int
	stripeSize  int64
	firstOST    int
	size        int64
}

// Create makes (or truncates) a file with the given striping. stripeCount
// is clamped to the OST pool size; stripeCount <= 0 or stripeSize <= 0
// select the Lustre defaults (1 stripe, 1 MiB).
func (fs *FS) Create(name string, stripeCount int, stripeSize int64) (*File, error) {
	if name == "" {
		return nil, fmt.Errorf("lustre: empty file name")
	}
	stripeCount, stripeSize = fs.striping(stripeCount, stripeSize)
	f := &File{
		fs:          fs,
		name:        name,
		stripeCount: stripeCount,
		stripeSize:  stripeSize,
		firstOST:    fs.nextOST,
	}
	fs.nextOST = (fs.nextOST + stripeCount) % fs.cfg.OSTs
	fs.files[name] = f
	fs.last = nil
	fs.MetaOps(1, 1) // create is one MDS op
	return f, nil
}

// striping resolves requested striping to what Create gives a file.
func (fs *FS) striping(stripeCount int, stripeSize int64) (int, int64) {
	if stripeCount <= 0 {
		stripeCount = 1
	}
	if stripeCount > fs.cfg.OSTs {
		stripeCount = fs.cfg.OSTs
	}
	if stripeSize <= 0 {
		stripeSize = 1 << 20
	}
	return stripeCount, stripeSize
}

// Open returns an existing file.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("lustre: open %s: no such file", name)
	}
	fs.MetaOps(1, 1)
	return f, nil
}

// Exists reports whether a file was created in this simulation.
func (fs *FS) Exists(name string) bool {
	_, ok := fs.files[name]
	return ok
}

// StripeCount returns the file's stripe count.
func (f *File) StripeCount() int { return f.stripeCount }

// StripeSize returns the file's stripe size in bytes.
func (f *File) StripeSize() int64 { return f.stripeSize }

// Size returns the current file size (high-water mark of writes).
func (f *File) Size() int64 { return f.size }

// phase services a set of extents and returns the elapsed simulated time:
// plan splits them into per-OST integer loads, charge turns the loads into
// time on the machine as it is now.
func (f *File) phase(extents []ioreq.Extent, isWrite bool) (float64, error) {
	if len(extents) == 0 {
		return 0, nil
	}
	t, wide, err := f.plan(extents, isWrite)
	if err != nil {
		return 0, err
	}
	return f.charge(t, wide), nil
}

// plan is the integer half of a phase: it walks the extents over the
// stripe layout and totals what each OST and each client node is asked to
// move. The result is a pure function of the extents, the direction, the
// file's striping, first OST and current size, the pool size, the RAID
// segment and the ranks per node — no clock, RNG or drift schedule — which
// is what makes a table reusable across seeds and drift epochs. plan leaves
// the file untouched (charge applies the size change) and returns the table
// in FS scratch, valid until the next plan. wide is non-nil when some load
// overflows the table's compact fields; it then carries every load instead.
//
// An extent's geometric footprint (SpanLen) decides which stripes it
// touches; its payload bytes are spread over those stripes in proportion to
// footprint overlap, and its sub-request count distributes with the payload
// (planner.extent). Every piece goes straight into the per-OST accumulators.
func (f *File) plan(extents []ioreq.Extent, isWrite bool) (*PhaseTable, []wideLoad, error) {
	sp := &f.fs.scratch
	gen := sp.nextPhaseGen()
	sp.loadOrder = sp.loadOrder[:0]
	sp.nodeOrder = sp.nodeOrder[:0]
	procsPerNode := f.fs.sim.Cluster.ProcsPerNode
	nOSTs := f.fs.cfg.OSTs
	growStamps(&sp.loadEpoch, nOSTs-1)
	growInt64(&sp.loadBytes, nOSTs-1)
	growInt64(&sp.loadRMW, nOSTs-1)
	growInt64(&sp.loadReqs, nOSTs-1)
	growInt64(&sp.loadClis, nOSTs-1)

	// Distinct-client stamps: one row of ranks per OST. Rank values are
	// bounded by the cluster size in practice; grow defensively otherwise.
	maxRank := 0
	for i := range extents {
		if r := extents[i].Rank; r > maxRank {
			maxRank = r
		}
	}
	if sp.cliStride < maxRank+1 || len(sp.cliEpoch) < nOSTs*sp.cliStride {
		sp.cliStride = maxRank + 1
		sp.cliEpoch = make([]uint32, nOSTs*sp.cliStride)
	}

	t := &sp.table
	*t = PhaseTable{
		loads:      t.loads[:0],
		firstOST:   int32(f.firstOST),
		isWrite:    isWrite,
		sizeBefore: f.size,
	}
	p := newPlanner(f, gen, isWrite)
	size := f.size
	node, nodeOf := -1, 0 // the last extent's node and rank: extents come in runs of one rank
	for i := range extents {
		e := &extents[i]
		if e.Offset < 0 || e.Size <= 0 {
			return nil, nil, e.Validate()
		}
		t.appBytes += e.Size
		if node < 0 || e.Rank != nodeOf {
			node, nodeOf = e.Rank/procsPerNode, e.Rank
			growStamps(&sp.nodeEpoch, node)
			growInt64(&sp.nodeBytes, node)
			if sp.nodeEpoch[node] != gen {
				sp.nodeEpoch[node] = gen
				sp.nodeBytes[node] = 0
				sp.nodeOrder = append(sp.nodeOrder, int32(node))
			}
		}
		sp.nodeBytes[node] += e.Size
		p.extent(e, size)
		if isWrite && e.End() > size {
			size = e.End()
		}
	}
	t.sizeAfter = size

	// The slowest node bounds the client side; only its bytes matter.
	for _, n := range sp.nodeOrder {
		if b := sp.nodeBytes[n]; b > t.maxNodeBytes {
			t.maxNodeBytes = b
		}
	}

	// Per-OST loads in first-touch order, compact unless one overflows.
	fits := true
	for _, o := range sp.loadOrder {
		t.requests += sp.loadReqs[o]
		t.rmwBytes += sp.loadRMW[o]
		if o > math.MaxUint16 || sp.loadClis[o] > math.MaxUint16 || sp.loadReqs[o] > math.MaxUint32 {
			fits = false
		}
		t.loads = append(t.loads, ostLoad{ost: uint16(o), clients: uint16(sp.loadClis[o]),
			requests: uint32(sp.loadReqs[o]), bytes: sp.loadBytes[o] + sp.loadRMW[o]})
	}
	if fits {
		return t, nil, nil
	}
	t.loads = t.loads[:0] // truncated: the wide loads stand in
	sp.wide = sp.wide[:0]
	for _, o := range sp.loadOrder {
		sp.wide = append(sp.wide, wideLoad{ost: int(o), clients: sp.loadClis[o],
			requests: sp.loadReqs[o], bytes: sp.loadBytes[o] + sp.loadRMW[o]})
	}
	return t, sp.wide, nil
}

// planner is what File.plan hoists out of its extent loop: the phase's
// accumulators and generation, and the layout arithmetic in the cheapest
// form the layout allows — a shift and a mask where the stripe size or the
// RAID segment is a power of two (every value params.Space() offers is).
type planner struct {
	sp      *phaseScratch
	gen     uint32
	isWrite bool

	ss, sc   int64 // stripe size and count
	ssShift  uint  // log2(ss), meaningful when ssMask >= 0
	ssMask   int64 // ss-1 when ss is a power of two, else -1
	rmwUnit  int64
	rmwMask  int64 // rmwUnit-1 when rmwUnit is a power of two, else -1
	firstOST int
	nOSTs    int
}

func newPlanner(f *File, gen uint32, isWrite bool) planner {
	p := planner{
		sp: &f.fs.scratch, gen: gen, isWrite: isWrite,
		ss: f.stripeSize, sc: int64(f.stripeCount), ssMask: -1,
		rmwUnit: f.fs.cfg.RMWUnit, rmwMask: -1,
		firstOST: f.firstOST, nOSTs: f.fs.cfg.OSTs,
	}
	if p.ss&(p.ss-1) == 0 {
		p.ssShift, p.ssMask = uint(bits.TrailingZeros64(uint64(p.ss))), p.ss-1
	}
	if p.rmwUnit&(p.rmwUnit-1) == 0 {
		p.rmwMask = p.rmwUnit - 1
	}
	return p
}

// stripeOf returns the stripe a non-negative file offset falls in.
func (p *planner) stripeOf(off int64) int64 {
	if p.ssMask >= 0 {
		return off >> p.ssShift
	}
	return off / p.ss
}

// unaligned reports whether off is off the RAID segment grid.
func (p *planner) unaligned(off int64) bool {
	if p.rmwMask >= 0 {
		return off&p.rmwMask != 0
	}
	return off%p.rmwUnit != 0
}

// edges counts the read-modify-write edges of the request [off, off+n) on a
// file currently fileSize bytes long: each end off the RAID segment grid,
// except a trailing end at or past EOF — appending has nothing to read back.
func (p *planner) edges(off, n, fileSize int64) int64 {
	var edges int64
	if p.unaligned(off) {
		edges++
	}
	if end := off + n; end < fileSize && p.unaligned(end) {
		edges++
	}
	return edges
}

// ostOf maps a stripe slot (stripe index mod stripe count) to its OST. A
// slot is below the stripe count, which Create clamps to the pool, and the
// first OST is below the pool size: one conditional subtract is the modulo.
func (p *planner) ostOf(slot int64) int {
	o := p.firstOST + int(slot)
	if o >= p.nOSTs {
		o -= p.nOSTs
	}
	return o
}

// touch adds one piece — bytes of payload in reqs requests from rank, with
// edges request ends that read back before they modify — to OST o's load.
func (p *planner) touch(o, rank int, bytes, reqs, edges int64) {
	sp := p.sp
	if sp.loadEpoch[o] != p.gen {
		sp.loadEpoch[o] = p.gen
		sp.loadBytes[o] = 0
		sp.loadRMW[o] = 0
		sp.loadReqs[o] = 0
		sp.loadClis[o] = 0
		sp.loadOrder = append(sp.loadOrder, int32(o))
	}
	sp.loadBytes[o] += bytes
	sp.loadReqs[o] += reqs
	if cs := o*sp.cliStride + rank; sp.cliEpoch[cs] != p.gen {
		sp.cliEpoch[cs] = p.gen
		sp.loadClis[o]++
	}
	if !p.isWrite {
		return
	}
	subSize := bytes
	if reqs > 1 {
		if subSize = bytes / reqs; subSize == 0 {
			subSize = bytes
		}
		// Strided sub-requests smaller than the RAID segment pay interior
		// RMW; sequential write combining absorbs half.
		if subSize%p.rmwUnit != 0 {
			edges += reqs / 2
		}
	}
	if edges != 0 {
		sp.loadRMW[o] += edges * min64(p.rmwUnit, subSize)
	}
}

// shares deals an extent's payload out to its pieces in the general form:
// a piece of span footprint bytes gets span·size/spanLen bytes and
// span·requests/spanLen requests, at least one, and the last piece whatever
// is left, so bytes and requests are conserved exactly. A share of no bytes
// is no piece (the caller skips it).
type shares struct {
	size, requests, spanLen int64 // of the extent
	bytesOut, requestsOut   int64 // dealt so far
}

func (d *shares) next(span int64, last bool) (size, reqs int64) {
	if last {
		size, reqs = d.size-d.bytesOut, d.requests-d.requestsOut
	} else {
		size, reqs = span*d.size/d.spanLen, span*d.requests/d.spanLen
	}
	d.bytesOut += size
	d.requestsOut += reqs
	if reqs < 1 {
		reqs = 1
	}
	return size, reqs
}

// extent adds one extent's pieces to the phase. fileSize is the file size
// the extent meets (plan's running high-water mark, not f.size).
//
// The pieces of an extent are its stripe slots in first-touch order, each
// with its share of the payload (shares). A dense single-request extent
// (SpanLen = Size, one request — nine extents in ten) needs none of that
// arithmetic: the shares are the spans themselves and every piece is one
// request. That closed form is taken only below 2³¹ bytes, where the
// products of the general form cannot wrap, so that either form gives what
// the general one always gave.
func (p *planner) extent(e *ioreq.Extent, fileSize int64) {
	spanLen := e.SpanLen()
	first := p.stripeOf(e.Offset)
	nStripes := p.stripeOf(e.Offset+spanLen-1) - first + 1
	dense := e.Span <= e.Size && e.Count <= 1 && e.Size < 1<<31
	if nStripes > p.sc {
		if p.sc == 1 {
			p.onOneOST(e, fileSize, first, nStripes)
		} else {
			p.slotted(e, fileSize, first, nStripes, dense)
		}
		return
	}

	// No slot repeats: each stripe is a piece on an OST of its own, added as
	// the walk reaches it.
	var slot int64
	if p.sc > 1 {
		slot = first % p.sc
	}
	o := p.ostOf(slot)
	off, remaining := e.Offset, spanLen
	avail := p.ss - (off - first*p.ss)
	deal := shares{size: e.Size, requests: e.Requests(), spanLen: spanLen}
	for {
		n := min64(remaining, avail)
		var edges int64
		if p.isWrite {
			edges = p.edges(off, n, fileSize)
		}
		remaining -= n
		size, reqs := n, int64(1)
		if !dense {
			size, reqs = deal.next(n, remaining == 0)
		}
		if size > 0 {
			p.touch(o, e.Rank, size, reqs, edges)
		}
		if remaining == 0 {
			return
		}
		off += n
		avail = p.ss
		if slot++; slot == p.sc {
			slot, o = 0, p.firstOST
		} else if o++; o == p.nOSTs {
			o = 0
		}
	}
}

// onOneOST is extent on a file of one stripe per cycle (the Lustre default)
// for a footprint of several stripes: they all share the one slot, which as
// the last touched takes every byte and request, so only the edges are left
// to count — stripe by stripe up to two stripes, at the head and tail
// partial stripes past that (see slotted).
func (p *planner) onOneOST(e *ioreq.Extent, fileSize, first, nStripes int64) {
	var edges int64
	if p.isWrite {
		off, end := e.Offset, e.Offset+e.SpanLen()
		if nStripes == 2 {
			mid := (first + 1) * p.ss
			edges = p.edges(off, mid-off, fileSize) + p.edges(mid, end-mid, fileSize)
		} else {
			if off != first*p.ss && p.unaligned(off) {
				edges++
			}
			if end != (first+nStripes)*p.ss && end < fileSize && p.unaligned(end) {
				edges++
			}
		}
	}
	p.touch(p.firstOST, e.Rank, e.Size, e.Requests(), edges)
}

// slotted is extent for a footprint of more stripes than the file has
// OSTs: stripes a whole cycle apart share a slot, so footprint and edges
// are summed per slot — in epoch-stamped scratch, in first-touch order —
// before they turn into pieces. Up to two cycles the stripes are walked one
// by one; past that the head and tail partial stripes are placed and the
// full stripes between them dealt round the slots, so cost stays
// O(stripeCount) rather than O(stripes).
func (p *planner) slotted(e *ioreq.Extent, fileSize, first, nStripes int64, dense bool) {
	sp := p.sp
	gen := sp.nextSlotGen()
	growStamps(&sp.slotEpoch, int(p.sc)-1)
	growInt64(&sp.slotSpan, int(p.sc)-1)
	growInt64(&sp.slotEdges, int(p.sc)-1)
	sp.slotOrder = sp.slotOrder[:0]
	add := func(slot, span, edges int64) {
		if sp.slotEpoch[slot] != gen {
			sp.slotEpoch[slot] = gen
			sp.slotSpan[slot] = 0
			sp.slotEdges[slot] = 0
			sp.slotOrder = append(sp.slotOrder, int32(slot))
		}
		sp.slotSpan[slot] += span
		sp.slotEdges[slot] += edges
	}

	spanLen := e.SpanLen()
	end := e.Offset + spanLen
	slot := first % p.sc
	head := e.Offset - first*p.ss // offset within the first stripe
	if nStripes <= 2*p.sc {
		off, remaining := e.Offset, spanLen
		avail := p.ss - head
		for remaining > 0 {
			n := min64(remaining, avail)
			add(slot, n, p.edges(off, n, fileSize))
			off += n
			remaining -= n
			avail = p.ss
			if slot++; slot == p.sc {
				slot = 0
			}
		}
	} else {
		last := first + nStripes - 1
		tailBytes := end - last*p.ss
		if tailBytes == p.ss {
			tailBytes = 0 // ends on a stripe boundary: the last stripe is full
		}
		fullCount := nStripes
		if head > 0 {
			var edges int64
			if p.unaligned(e.Offset) {
				edges++
			}
			add(slot, p.ss-head, edges)
			fullCount--
			if slot++; slot == p.sc {
				slot = 0
			}
		}
		if tailBytes > 0 {
			var edges int64
			if end < fileSize && p.unaligned(end) {
				edges++
			}
			add(last%p.sc, tailBytes, edges)
			fullCount--
		}
		base, extra := fullCount/p.sc, fullCount%p.sc
		for i := int64(0); i < p.sc && i < fullCount; i++ {
			cnt := base
			if i < extra {
				cnt++
			}
			add(slot, cnt*p.ss, 0)
			if slot++; slot == p.sc {
				slot = 0
			}
		}
	}

	// Footprint to payload, in first-touch order.
	deal := shares{size: e.Size, requests: e.Requests(), spanLen: spanLen}
	for i, s := range sp.slotOrder {
		span := sp.slotSpan[s]
		size, reqs := span, int64(1)
		if !dense {
			size, reqs = deal.next(span, i == len(sp.slotOrder)-1)
		}
		if size > 0 {
			p.touch(p.ostOf(int64(s)), e.Rank, size, reqs, sp.slotEdges[s])
		}
	}
}

// charge is the float half of a phase: it prices a table on the machine as
// it is now — contention, the drift schedule sampled at the phase's start,
// run-to-run noise — advances the clock, applies the file-size change and
// books the darshan counters. wide, when non-nil, replaces t.loads (see
// plan).
func (f *File) charge(t *PhaseTable, wide []wideLoad) float64 {
	// Slowest OST bounds the storage side. Under a drift schedule the
	// phase samples the machine once at its start time: background OST
	// load and per-regime degraded OSTs divide effective bandwidth, and
	// contention phases scale the per-extra-client factor. The nil-drift
	// path charges the exact historical expressions.
	cfg := f.fs.cfg
	dr := f.fs.sim.Cluster.Drift
	var at, cScale float64
	if dr != nil {
		at = f.fs.sim.Time()
		cScale = dr.ContentionScale(at)
	}
	ostTime := 0.0
	n := len(t.loads)
	if wide != nil {
		n = len(wide)
	} else if dr == nil && t.front != 0 {
		// Without a drift schedule every OST prices a load alike and never
		// prices a larger one lower (Config.Validate), so the slowest OST
		// carries an undominated load. A schedule can degrade any one OST.
		n = int(t.front)
	}
	for i := 0; i < n; i++ {
		var l wideLoad
		if wide != nil {
			l = wide[i]
		} else {
			l = t.loads[i].widen()
		}
		contention := 1 + cfg.ContentionFactor*float64(l.clients-1)
		if dr != nil {
			contention = 1 + cfg.ContentionFactor*cScale*float64(l.clients-1)
		}
		if contention > cfg.MaxContention {
			contention = cfg.MaxContention
		}
		bw := cfg.OSTBandwidth
		if dr != nil {
			bw *= dr.OSTFactor(at, l.ost, cfg.OSTs)
		}
		d := float64(l.requests)*cfg.OSTLatency + float64(l.bytes)/bw*contention
		if d > ostTime {
			ostTime = d
		}
	}

	// Client NIC side: slowest node's injection time.
	nicBW := f.fs.sim.Cluster.NICBandwidth
	if dr != nil {
		nicBW *= dr.NICFactor(at)
	}
	nicTime := float64(t.maxNodeBytes) / nicBW

	elapsed := ostTime
	if nicTime > elapsed {
		elapsed = nicTime
	}
	elapsed += cfg.OSTLatency // pipeline fill
	elapsed = f.fs.sim.Perturb(elapsed)
	f.fs.sim.Advance(elapsed)

	lc := f.fs.sim.Report.At(darshan.Lustre)
	if t.isWrite {
		f.size = t.sizeAfter
		lc.WriteOps += t.requests
		lc.BytesWritten += t.appBytes
		lc.BytesRead += t.rmwBytes // RMW causes OST-side reads
		lc.WriteTime += elapsed
	} else {
		lc.ReadOps += t.requests
		lc.BytesRead += t.appBytes
		lc.ReadTime += elapsed
	}
	return elapsed
}

// WritePhase implements ioreq.Backend semantics for this file.
func (f *File) WritePhase(extents []ioreq.Extent) (float64, error) {
	return f.phase(extents, true)
}

// ReadPhase services concurrent reads.
func (f *File) ReadPhase(extents []ioreq.Extent) (float64, error) {
	return f.phase(extents, false)
}

// MetaOps services n metadata operations issued by nclients concurrent
// clients and returns the elapsed time. The MDS serializes operations over
// MDSParallel service streams.
func (fs *FS) MetaOps(n, nclients int) float64 {
	if n <= 0 {
		return 0
	}
	if nclients < 1 {
		nclients = 1
	}
	d := float64(n)*fs.cfg.MDSLatency/float64(fs.cfg.MDSParallel) + fs.sim.Cluster.NICLatency
	if dr := fs.sim.Cluster.Drift; dr != nil {
		// Background metadata traffic divides MDS service capacity.
		d = float64(n)*fs.cfg.MDSLatency/(float64(fs.cfg.MDSParallel)*dr.MDSFactor(fs.sim.Time())) + fs.sim.Cluster.NICLatency
	}
	d = fs.sim.Perturb(d)
	fs.sim.Advance(d)
	fs.sim.Report.At(darshan.Lustre).AddMeta(int64(n), d)
	return d
}

// Backend adapts FS to the ioreq.Backend interface, resolving files by
// name. Phases against unknown files create them with the FS's default or
// per-call striping settings recorded via SetDefaultStriping.
type Backend struct {
	FS          *FS
	StripeCount int
	StripeSize  int64
}

var _ ioreq.Backend = (*Backend)(nil)

// Name implements ioreq.Backend.
func (b *Backend) Name() string { return "lustre" }

// file resolves name, creating the file if this run has not yet. Phases
// come in runs against one file, so the last resolution is kept and the map
// is consulted only when the name changes.
func (b *Backend) file(name string) *File {
	if f := b.FS.last; f != nil && f.name == name {
		return f
	}
	f, ok := b.FS.files[name]
	if !ok {
		var err error
		if f, err = b.FS.Create(name, b.StripeCount, b.StripeSize); err != nil {
			panic("lustre: backend create: " + err.Error())
		}
	}
	b.FS.last = f
	return f
}

// WritePhase implements ioreq.Backend.
func (b *Backend) WritePhase(name string, extents []ioreq.Extent) float64 {
	d, err := b.file(name).WritePhase(extents)
	if err != nil {
		panic("lustre: " + err.Error())
	}
	return d
}

// ReadPhase implements ioreq.Backend.
func (b *Backend) ReadPhase(name string, extents []ioreq.Extent) float64 {
	d, err := b.file(name).ReadPhase(extents)
	if err != nil {
		panic("lustre: " + err.Error())
	}
	return d
}

// MetaOps implements ioreq.Backend.
func (b *Backend) MetaOps(n, nclients int) float64 {
	return b.FS.MetaOps(n, nclients)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
