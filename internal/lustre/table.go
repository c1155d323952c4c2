package lustre

import (
	"math"
	"sync/atomic"
	"unsafe"

	"tunio/internal/ioreq"
)

// PhaseTable is the integer half of one phase (see File.plan): what each
// OST and the busiest client node are asked to move, with the totals the
// darshan counters need. A table is immutable once published; charging it
// is sound exactly when the file it meets has the first OST and, for a
// write, the size recorded here (File.accepts) and the striping of the
// Layout the table was planned under. Published tables are kept for the
// life of a wire plan, thousands of them on a busy daemon: the header fits
// the 80-byte size class and is kept there.
type PhaseTable struct {
	loads []ostLoad // first-touch order until published, then front first

	appBytes     int64 // payload bytes of the extents
	requests     int64 // storage requests over all OSTs
	rmwBytes     int64 // read-modify-write bytes over all OSTs
	maxNodeBytes int64 // payload the busiest client node injects
	sizeBefore   int64 // file size the extents met
	sizeAfter    int64 // file size once they are written
	firstOST     int32
	// front, when nonzero, says loads[:front] hold every undominated load —
	// one no other load matches or exceeds in clients, requests and bytes
	// alike — so on a machine that treats all OSTs the same the slowest OST
	// is among them. Zero (a table not published, or a count past the
	// field) means any load may be the slowest.
	front   uint16
	isWrite bool
}

// ostLoad is the load a phase places on one OST, 16 bytes so a published
// table costs little more than its stripe count.
type ostLoad struct {
	ost      uint16
	clients  uint16 // distinct ranks touching the OST
	requests uint32
	bytes    int64 // payload plus read-modify-write bytes
}

// wideLoad is ostLoad without the field limits. A phase with a load past
// them is charged from wide loads and never published.
type wideLoad struct {
	ost      int
	clients  int64
	requests int64
	bytes    int64
}

func (l ostLoad) widen() wideLoad {
	return wideLoad{ost: int(l.ost), clients: int64(l.clients), requests: int64(l.requests), bytes: l.bytes}
}

// covers reports whether l is at least o in clients, requests and bytes.
func (l ostLoad) covers(o ostLoad) bool {
	return l.clients >= o.clients && l.requests >= o.requests && l.bytes >= o.bytes
}

// publish returns an exact-size immutable copy of the scratch table with
// the undominated loads moved to the front (of equal loads, one). Each load
// is compared with the front as it stands when the load is reached, never
// with every other load: a phase striped evenly over 248 OSTs has a front of
// one or two, and pays for 248 comparisons or so.
func (t *PhaseTable) publish() *PhaseTable {
	c := *t
	c.loads = make([]ostLoad, len(t.loads))
	copy(c.loads, t.loads)
	loads, nf := c.loads, 0 // loads[:nf] is the front of loads[:i]
next:
	for i, l := range loads {
		// No front load covers another, so one that covers l rules out
		// any that l covers: the two cases never meet in one pass.
		for j := 0; j < nf; {
			switch {
			case loads[j].covers(l):
				continue next
			case l.covers(loads[j]):
				nf--
				loads[j], loads[nf] = loads[nf], loads[j]
			default:
				j++
			}
		}
		loads[i], loads[nf] = loads[nf], l
		nf++
	}
	if nf <= math.MaxUint16 {
		c.front = uint16(nf)
	}
	return &c
}

// Bytes is what a published table keeps in memory: its header and its
// loads.
func (t *PhaseTable) Bytes() int64 {
	return int64(unsafe.Sizeof(*t)) + int64(cap(t.loads))*int64(unsafe.Sizeof(ostLoad{}))
}

// accepts reports whether charging t is the same as planning and charging
// the extents t was built from against f as it is now. First OST and size
// depend on the order files were created and written in this run, which a
// replay does not model (metadata-cache misses can create a file early); a
// mismatch just sends the phase down the live path. Size only matters to a
// write — it decides which edges read back before they modify and where the
// file ends afterwards — so a read's table serves the file at any size.
func (f *File) accepts(t *PhaseTable, isWrite bool) bool {
	return t.isWrite == isWrite && int(t.firstOST) == f.firstOST && (!isWrite || t.sizeBefore == f.size)
}

// TableSlot holds the published table of one replayed phase — one fixed
// extent list and direction — under one Layout. Slots start empty, are
// filled by the first run to reach the phase and never change afterwards,
// so any number of concurrent runs (each on its own FS) may share one.
type TableSlot = atomic.Pointer[PhaseTable]

// Layout is what a phase table depends on besides its extents and the
// file's allocation state: the striping new files get, the OST pool, the
// RAID segment and the ranks per node. Runs with equal layouts may share
// table slots.
type Layout struct {
	StripeCount int
	StripeSize  int64
	OSTs        int
	RMWUnit     int64
	PPN         int
}

// Layout returns the layout of phases this backend serves.
func (b *Backend) Layout() Layout {
	count, size := b.FS.striping(b.StripeCount, b.StripeSize)
	return Layout{
		StripeCount: count,
		StripeSize:  size,
		OSTs:        b.FS.cfg.OSTs,
		RMWUnit:     b.FS.cfg.RMWUnit,
		PPN:         b.FS.sim.Cluster.ProcsPerNode,
	}
}

// TableUse says how a phase offered a table slot was served.
type TableUse uint8

const (
	TableNone  TableUse = iota // backend keeps no tables: served live
	TableHit                   // charged from the slot's table
	TableBuilt                 // slot was empty: planned, published, charged
	TableStale                 // slot's table does not fit the file: served live
	TableUses
)

// PhaseVia is WritePhase/ReadPhase of extents through a table slot: an
// empty slot is filled by this phase's own plan, a filled one replaces the
// plan when the file accepts it. slot must belong to these extents, this
// direction and b.Layout(); a file striped otherwise (created before the
// backend was restriped) has no business with it and is served live. It
// also returns the extents' payload bytes.
func (b *Backend) PhaseVia(slot *TableSlot, name string, extents []ioreq.Extent, isWrite bool) (elapsed float64, appBytes int64, use TableUse) {
	f := b.file(name)
	if len(extents) == 0 {
		return 0, 0, TableNone // an empty phase is free
	}
	count, size := b.FS.striping(b.StripeCount, b.StripeSize)
	ours := f.stripeCount == count && f.stripeSize == size
	pub := slot.Load()
	if ours && pub != nil && f.accepts(pub, isWrite) {
		return f.charge(pub, nil), pub.appBytes, TableHit
	}
	t, wide, err := f.plan(extents, isWrite)
	if err != nil {
		panic("lustre: " + err.Error())
	}
	use = TableStale
	if ours && pub == nil {
		use = TableBuilt
		if wide == nil {
			slot.CompareAndSwap(nil, t.publish())
		}
	}
	return f.charge(t, wide), t.appBytes, use
}
