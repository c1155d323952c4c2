package lustre

import (
	"math"

	"tunio/internal/ioreq"
)

// This file is the differential reference for File.plan: split and
// planOracle are the planner as it stood before it learnt to add pieces
// straight into the per-OST accumulators — every extent through the one
// general walk, a []ostPiece handed back per extent, each product divided —
// kept verbatim (but for the piece buffer, which left the FS scratch) so
// that the one-pass planner in lustre.go can be held to it bit for bit.
// Test-only: production code has the one implementation.

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
	var out []ostPiece
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
	return out
}

// planOracle is File.plan as it stood over split: the same accumulators in
// the same order, the table built in a buffer of its own.
func (f *File) planOracle(extents []ioreq.Extent, isWrite bool) (*PhaseTable, []wideLoad, error) {
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

	t := &PhaseTable{
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

	for _, n := range sp.nodeOrder {
		if b := sp.nodeBytes[n]; b > t.maxNodeBytes {
			t.maxNodeBytes = b
		}
	}

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
	t.loads = t.loads[:0]
	var wide []wideLoad
	for _, o := range sp.loadOrder {
		wide = append(wide, wideLoad{ost: int(o), clients: sp.loadClis[o],
			requests: sp.loadReqs[o], bytes: sp.loadBytes[o] + sp.loadRMW[o]})
	}
	return t, wide, nil
}
