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

	// Scratch state reused across split/plan calls. Access to one FS is
	// serialized (the simulation advances a single clock), so phases never
	// run concurrently; concurrent tuning evaluations each build their own
	// stack and FS. Epoch stamps make resets O(touched) instead of O(OSTs).
	scratch phaseScratch
}

// phaseScratch holds the dense accumulators split and plan reuse call to
// call, replacing the per-call maps that dominated the evaluation hot path.
// Epoch stamps mark which entries belong to the current extent/phase, so a
// "reset" is a counter increment rather than a clear. Generation 0 is what
// untouched stamps hold and is never current: the scratch outlives FS.Reset
// in pooled stacks, so the counters do wrap, and nextSlotGen/nextPhaseGen
// then clear the stamps and restart at 1.
type phaseScratch struct {
	pieces []ostPiece // split output buffer

	// Per-extent slot accumulation in split, indexed by stripe%stripeCount.
	// slotOrder keeps first-touch order: the last touched slot absorbs the
	// payload rounding remainder, exactly as the map-based version did.
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

// nextSlotGen starts a new extent in split.
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

// ostPiece is the load one extent places on a single OST. A piece may
// aggregate several stripes of the same extent that land on the same OST.
type ostPiece struct {
	ost      int
	size     int64
	requests int64 // sub-requests landing in this piece
	rank     int
	rmwEdges int64 // request edges unaligned to RMWUnit (write RMW penalty)
}

// edgeRMW reports whether a boundary at off is a read-modify-write edge
// of a file currently size bytes long.
func (f *File) edgeRMW(off int64, trailing bool, size int64) bool {
	if off%f.fs.cfg.RMWUnit == 0 {
		return false
	}
	if trailing && off >= size {
		return false // appending past EOF: nothing to read back
	}
	return true
}

// split maps an extent to per-OST pieces according to the stripe layout.
// The extent's geometric footprint (SpanLen) decides which stripes are
// touched; its payload bytes are spread over those stripes in proportion
// to footprint overlap, and its sub-request count distributes with the
// payload. Extents spanning many stripe cycles aggregate into one piece
// per participating OST so cost stays O(stripeCount) rather than
// O(stripes). fileSize is the file size the extent meets (plan's running
// high-water mark, not f.size: planning leaves the file untouched).
func (f *File) split(e ioreq.Extent, fileSize int64) []ostPiece {
	ss := f.stripeSize
	sc := int64(f.stripeCount)
	spanLen := e.SpanLen()
	end := e.Offset + spanLen
	firstStripe := e.Offset / ss
	lastStripe := (end - 1) / ss
	nStripes := lastStripe - firstStripe + 1

	// Collect geometric footprint per OST slot first. Slots are keyed by
	// stripe%stripeCount (equivalent to keying by OST: the slot->OST map is
	// injective) into epoch-stamped scratch arrays, in first-touch order.
	sp := &f.fs.scratch
	gen := sp.nextSlotGen()
	growStamps(&sp.slotEpoch, int(sc)-1)
	growInt64(&sp.slotSpan, int(sc)-1)
	growInt64(&sp.slotEdges, int(sc)-1)
	sp.slotOrder = sp.slotOrder[:0]
	add := func(stripe, span, edges int64) {
		slot := int(stripe % sc)
		if sp.slotEpoch[slot] != gen {
			sp.slotEpoch[slot] = gen
			sp.slotSpan[slot] = 0
			sp.slotEdges[slot] = 0
			sp.slotOrder = append(sp.slotOrder, int32(slot))
		}
		sp.slotSpan[slot] += span
		sp.slotEdges[slot] += edges
	}

	if nStripes <= 2*sc {
		// exact per-stripe walk for small spans; the stripe index and
		// in-stripe position advance incrementally (no div/mod per stripe)
		off := e.Offset
		remaining := spanLen
		stripeIdx := firstStripe
		avail := ss - off%ss
		for remaining > 0 {
			n := remaining
			if n > avail {
				n = avail
			}
			var edges int64
			if f.edgeRMW(off, false, fileSize) {
				edges++
			}
			if f.edgeRMW(off+n, true, fileSize) {
				edges++
			}
			add(stripeIdx, n, edges)
			off += n
			remaining -= n
			stripeIdx++
			avail = ss
		}
	} else {
		// aggregated path: head/tail partial stripes plus evenly
		// distributed full stripes
		headBytes := int64(0)
		if rem := e.Offset % ss; rem != 0 {
			headBytes = ss - rem
		}
		tailBytes := end % ss
		fullFirst, fullLast := firstStripe, lastStripe
		if headBytes > 0 {
			fullFirst++
		}
		if tailBytes > 0 {
			fullLast--
		}
		fullCount := fullLast - fullFirst + 1
		if headBytes > 0 {
			var edges int64
			if f.edgeRMW(e.Offset, false, fileSize) {
				edges++
			}
			add(firstStripe, headBytes, edges)
		}
		if tailBytes > 0 {
			var edges int64
			if f.edgeRMW(end, true, fileSize) {
				edges++
			}
			add(lastStripe, tailBytes, edges)
		}
		base := fullCount / sc
		extra := fullCount % sc
		for i := int64(0); i < sc; i++ {
			stripe := fullFirst + i
			if stripe > fullLast {
				break
			}
			cnt := base
			if i < extra {
				cnt++
			}
			if cnt > 0 {
				add(stripe, cnt*ss, 0)
			}
		}
	}

	// Convert footprint to payload: spread Size bytes and Count requests
	// proportionally, conserving totals exactly (the last touched slot
	// absorbs the rounding remainder).
	out := sp.pieces[:0]
	var assignedBytes, assignedReqs int64
	for i, slot := range sp.slotOrder {
		span := sp.slotSpan[slot]
		size := span * e.Size / spanLen
		reqs := span * e.Requests() / spanLen
		if i == len(sp.slotOrder)-1 {
			size = e.Size - assignedBytes
			reqs = e.Requests() - assignedReqs
		}
		assignedBytes += size
		assignedReqs += reqs
		if size <= 0 {
			continue
		}
		if reqs < 1 {
			reqs = 1
		}
		out = append(out, ostPiece{
			ost:      (f.firstOST + int(slot)) % f.fs.cfg.OSTs,
			size:     size,
			requests: reqs,
			rank:     e.Rank,
			rmwEdges: sp.slotEdges[slot],
		})
	}
	sp.pieces = out
	return out
}

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
func (f *File) plan(extents []ioreq.Extent, isWrite bool) (*PhaseTable, []wideLoad, error) {
	sp := &f.fs.scratch
	gen := sp.nextPhaseGen()
	sp.loadOrder = sp.loadOrder[:0]
	sp.nodeOrder = sp.nodeOrder[:0]
	procsPerNode := f.fs.sim.Cluster.ProcsPerNode
	nOSTs := f.fs.cfg.OSTs
	rmwUnit := f.fs.cfg.RMWUnit
	growStamps(&sp.loadEpoch, nOSTs-1)
	growInt64(&sp.loadBytes, nOSTs-1)
	growInt64(&sp.loadRMW, nOSTs-1)
	growInt64(&sp.loadReqs, nOSTs-1)
	growInt64(&sp.loadClis, nOSTs-1)

	// Distinct-client stamps: one row of ranks per OST. Rank values are
	// bounded by the cluster size in practice; grow defensively otherwise.
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

	t := &sp.table
	*t = PhaseTable{
		loads:      t.loads[:0],
		firstOST:   int32(f.firstOST),
		isWrite:    isWrite,
		sizeBefore: f.size,
	}
	size := f.size
	for _, e := range extents {
		if err := e.Validate(); err != nil {
			return nil, nil, err
		}
		t.appBytes += e.Size
		node := e.Rank / procsPerNode
		growStamps(&sp.nodeEpoch, node)
		growInt64(&sp.nodeBytes, node)
		if sp.nodeEpoch[node] != gen {
			sp.nodeEpoch[node] = gen
			sp.nodeBytes[node] = 0
			sp.nodeOrder = append(sp.nodeOrder, int32(node))
		}
		sp.nodeBytes[node] += e.Size
		for _, p := range f.split(e, size) {
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
				// Strided sub-requests smaller than the RAID segment pay
				// interior RMW; sequential write combining absorbs half.
				if p.requests > 1 && subSize%rmwUnit != 0 {
					edges += p.requests / 2
				}
				sp.loadRMW[o] += edges * min64(rmwUnit, subSize)
			}
		}
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
