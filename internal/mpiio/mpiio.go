// Package mpiio simulates the MPI-IO middleware layer (ROMIO): independent
// I/O passes extents straight to the storage backend, while collective I/O
// implements generalized two-phase buffering — data is shuffled over the
// network to cb_nodes aggregator processes that stage it in cb_buffer_size
// buffers and issue large contiguous file requests.
//
// This reproduces the collective-buffering tuning trade-offs the paper's
// parameter space exercises: too few aggregators bottleneck on aggregator
// NICs, too many re-create storage contention; small collective buffers
// multiply the number of two-phase rounds (each paying shuffle latency),
// huge ones waste little but are capped by memory.
package mpiio

import (
	"cmp"
	"fmt"
	"slices"

	"tunio/internal/cluster"
	"tunio/internal/darshan"
	"tunio/internal/ioreq"
	"tunio/internal/lustre"
)

// Hints are the MPI-IO tuning knobs (a subset of ROMIO's hint set).
type Hints struct {
	CollectiveWrite bool  // romio_cb_write
	CollectiveRead  bool  // romio_cb_read
	CBNodes         int   // cb_nodes: number of aggregators
	CBBufferSize    int64 // cb_buffer_size: staging buffer per aggregator
}

// Fill normalizes hints for a communicator of nprocs processes (the
// normalization Open applies; exported for plan lowering, which computes
// aggregation schedules outside an open file handle).
func (h Hints) Fill(nprocs int) Hints { return h.fill(nprocs) }

// fill normalizes hints for a communicator of nprocs processes.
func (h Hints) fill(nprocs int) Hints {
	if h.CBNodes <= 0 {
		h.CBNodes = 1
	}
	if h.CBNodes > nprocs {
		h.CBNodes = nprocs
	}
	if h.CBBufferSize <= 0 {
		h.CBBufferSize = 16 << 20 // ROMIO default
	}
	return h
}

// File is an MPI-IO file handle over a storage backend.
type File struct {
	sim     *cluster.Sim
	backend ioreq.Backend
	name    string
	hints   Hints
	nprocs  int
}

// Open opens (or creates at the backend on first write) a file for nprocs
// processes. MPI_File_open is collective: it costs one metadata round trip
// plus a barrier.
func Open(sim *cluster.Sim, backend ioreq.Backend, name string, nprocs int, hints Hints) (*File, error) {
	f := &File{}
	if err := f.Reopen(sim, backend, name, nprocs, hints); err != nil {
		return nil, err
	}
	return f, nil
}

// Reopen reinitializes the handle in place, running the same collective
// open protocol (metadata round trip + barrier) as Open. It exists so
// replay runtimes can reuse one handle allocation across executions; a
// reopened handle is indistinguishable from a freshly opened one.
func (f *File) Reopen(sim *cluster.Sim, backend ioreq.Backend, name string, nprocs int, hints Hints) error {
	if name == "" {
		return fmt.Errorf("mpiio: empty file name")
	}
	if nprocs <= 0 {
		return fmt.Errorf("mpiio: nprocs must be positive, got %d", nprocs)
	}
	backend.MetaOps(1, 1)
	sim.Barrier(nprocs)
	*f = File{sim: sim, backend: backend, name: name, hints: hints.fill(nprocs), nprocs: nprocs}
	return nil
}

// Hints returns the normalized hints in effect.
func (f *File) Hints() Hints { return f.hints }

// WriteAll performs a collective write of the extents (one per requesting
// rank region). Depending on hints it runs two-phase collective buffering
// or falls through to independent I/O. Returns elapsed simulated seconds.
func (f *File) WriteAll(extents []ioreq.Extent) (float64, error) {
	return f.transferAll(extents, true)
}

// ReadAll is the collective read counterpart.
func (f *File) ReadAll(extents []ioreq.Extent) (float64, error) {
	return f.transferAll(extents, false)
}

// WriteIndependent issues the extents directly (MPI_File_write_at from each
// rank, no coordination).
func (f *File) WriteIndependent(extents []ioreq.Extent) (float64, error) {
	return f.independent(extents, true)
}

// ReadIndependent issues independent reads.
func (f *File) ReadIndependent(extents []ioreq.Extent) (float64, error) {
	return f.independent(extents, false)
}

func (f *File) independent(extents []ioreq.Extent, isWrite bool) (float64, error) {
	if len(extents) == 0 {
		return 0, nil
	}
	var elapsed float64
	if isWrite {
		elapsed = f.backend.WritePhase(f.name, extents)
	} else {
		elapsed = f.backend.ReadPhase(f.name, extents)
	}
	f.record(isWrite, ioreq.TotalBytes(extents), elapsed)
	return elapsed, nil
}

// record books one completed transfer on the mpiio counters.
func (f *File) record(isWrite bool, bytes int64, elapsed float64) {
	lc := f.sim.Report.At(darshan.MPIIO)
	if isWrite {
		lc.AddWrite(bytes, elapsed)
	} else {
		lc.AddRead(bytes, elapsed)
	}
}

// IndependentVia is WriteIndependent/ReadIndependent of extents through a
// phase-table slot (lustre.Backend.PhaseVia): on a Lustre file the slot's
// table stands in for re-splitting the extents, with the same charges in
// the same order. Other backends keep no tables and serve the extents as
// always. slot must belong to these extents and direction under the
// backend's layout.
func (f *File) IndependentVia(slot *lustre.TableSlot, extents []ioreq.Extent, isWrite bool) (float64, lustre.TableUse) {
	lb, ok := f.backend.(*lustre.Backend)
	if !ok || len(extents) == 0 {
		elapsed, _ := f.independent(extents, isWrite)
		return elapsed, lustre.TableNone
	}
	elapsed, total, use := lb.PhaseVia(slot, f.name, extents, isWrite)
	f.record(isWrite, total, elapsed)
	return elapsed, use
}

func (f *File) transferAll(extents []ioreq.Extent, isWrite bool) (float64, error) {
	if len(extents) == 0 {
		return 0, nil
	}
	for _, e := range extents {
		if err := e.Validate(); err != nil {
			return 0, err
		}
	}
	collective := f.hints.CollectiveWrite
	if !isWrite {
		collective = f.hints.CollectiveRead
	}
	if !collective {
		return f.independent(extents, isWrite)
	}
	return f.ExecCollective(PlanCollective(extents, f.hints, f.nprocs, f.sim.Cluster.ProcsPerNode), isWrite, nil, nil), nil
}

// CollRound is one two-phase round of a collective plan: the aggregator
// file extents issued together and the bytes shuffled over the network.
type CollRound struct {
	Extents []ioreq.Extent
	Bytes   int64
}

// CollPlan is the precomputed two-phase aggregation schedule of one
// collective transfer. It is pure integer data — independent of the clock,
// the RNG, and the storage backend — so it depends only on the extents and
// the {cb_nodes, cb_buffer_size, nprocs, ppn} projection and can be cached
// and replayed across configurations that share those values.
type CollPlan struct {
	Rounds   []CollRound
	SrcNodes int
	AggNodes int
	Total    int64 // application bytes (sum over requesting extents)
}

// PlanCollective computes the two-phase aggregation schedule for a
// collective transfer of extents under filled hints h. Extents must already
// be validated.
func PlanCollective(extents []ioreq.Extent, h Hints, nprocs, ppn int) *CollPlan {
	runs := coverageRuns(extents)

	// Partition the covered byte range among aggregators in contiguous
	// file-domain slices, then stage cb_buffer_size bytes per aggregator
	// per round.
	agg := h.CBNodes
	var covered int64
	for _, r := range runs {
		covered += r.Size
	}
	domain := (covered + int64(agg) - 1) / int64(agg)
	if domain == 0 {
		domain = 1
	}
	rounds := int((domain + h.CBBufferSize - 1) / h.CBBufferSize)
	if rounds == 0 {
		rounds = 1
	}

	// Aggregators are spread evenly over the ranks (ROMIO picks one per
	// node where possible), so count the distinct nodes they land on: the
	// node index never falls as a rises, so every change is a new node.
	spacing := nprocs / agg
	if spacing < 1 {
		spacing = 1
	}
	aggNodes, lastNode := 0, -1
	for a := 0; a < agg; a++ {
		if node := (a * spacing) / ppn; node != lastNode {
			aggNodes++
			lastNode = node
		}
	}
	srcNodes := nprocs / ppn
	if nprocs%ppn != 0 {
		srcNodes++
	}

	plan := &CollPlan{
		Rounds:   make([]CollRound, 0, rounds),
		SrcNodes: srcNodes,
		AggNodes: aggNodes,
		Total:    ioreq.TotalBytes(extents),
	}
	perRound := h.CBBufferSize
	// One scratch slice gathers each round; the plan keeps an exact-size
	// copy, since plans are cached and outlive this call by far.
	var scratch []ioreq.Extent
	for round := 0; round < rounds; round++ {
		scratch = scratch[:0]
		var roundBytes int64
		for a := 0; a < agg; a++ {
			// aggregator a's coverage-space slice for this round
			lo := int64(a)*domain + int64(round)*perRound
			hi := lo + perRound
			if cap := int64(a+1) * domain; hi > cap {
				hi = cap
			}
			if lo >= hi {
				continue
			}
			scratch = sliceRuns(scratch, runs, lo, hi, a*spacing)
		}
		if len(scratch) == 0 {
			continue
		}
		roundExtents := make([]ioreq.Extent, len(scratch))
		copy(roundExtents, scratch)
		for _, p := range roundExtents {
			roundBytes += p.Size
		}
		plan.Rounds = append(plan.Rounds, CollRound{Extents: roundExtents, Bytes: roundBytes})
	}
	return plan
}

// ExecCollective services a precomputed collective plan against the live
// backend, charging shuffle, storage, and barrier time in the same order as
// a directly issued collective transfer. slots, when non-nil, holds one
// phase-table slot per round (belonging to that round's extents and this
// direction under the backend's layout): a Lustre backend then serves each
// round's storage phase through its slot, as IndependentVia does, and how
// each slot was used is tallied in uses. With nil slots — a live transfer —
// every round is planned at the backend as always and uses is not touched.
func (f *File) ExecCollective(p *CollPlan, isWrite bool, slots []lustre.TableSlot, uses *[lustre.TableUses]int64) float64 {
	var lb *lustre.Backend // the backend, if the rounds go through slots
	if slots != nil {
		lb, _ = f.backend.(*lustre.Backend)
	}
	storage := func(i int) float64 {
		rd := &p.Rounds[i]
		if lb != nil {
			elapsed, _, use := lb.PhaseVia(&slots[i], f.name, rd.Extents, isWrite)
			uses[use]++
			return elapsed
		}
		if isWrite {
			return f.backend.WritePhase(f.name, rd.Extents)
		}
		return f.backend.ReadPhase(f.name, rd.Extents)
	}
	elapsed := 0.0
	for i, rd := range p.Rounds {
		if isWrite {
			// Phase 1: shuffle rank data to aggregators; ~one message per
			// (rank, aggregator) pair that exchanges data, bounded by ranks.
			elapsed += f.sim.NetworkShuffle(rd.Bytes, p.SrcNodes, p.AggNodes, f.nprocs)
			elapsed += storage(i)
		} else {
			elapsed += storage(i)
			elapsed += f.sim.NetworkShuffle(rd.Bytes, p.AggNodes, p.SrcNodes, f.nprocs)
		}
	}
	elapsed += f.sim.Barrier(f.nprocs)
	f.record(isWrite, p.Total, elapsed)
	return elapsed
}

// coverageRuns merges all extents (ignoring rank) into disjoint sorted
// runs of geometric coverage. Strided extents contribute their full span:
// in the interleaved patterns collective buffering serves, the gaps are
// tiled by other ranks' payloads, so the union is the data the aggregators
// move.
func coverageRuns(extents []ioreq.Extent) []ioreq.Extent {
	sorted := extents
	if !offsetSorted(extents) {
		sorted = make([]ioreq.Extent, len(extents))
		copy(sorted, extents)
		slices.SortFunc(sorted, func(a, b ioreq.Extent) int {
			return cmp.Compare(a.Offset, b.Offset)
		})
	}
	var runs []ioreq.Extent
	for _, e := range sorted {
		end := e.Offset + e.SpanLen()
		if n := len(runs); n > 0 && e.Offset <= runs[n-1].End() {
			if end > runs[n-1].End() {
				runs[n-1].Size = end - runs[n-1].Offset
			}
			continue
		}
		runs = append(runs, ioreq.Extent{Offset: e.Offset, Size: e.SpanLen()})
	}
	return runs
}

// offsetSorted reports whether extents are already in non-decreasing
// offset order — the common case, since collective phases gather extents
// in rank order over rank-partitioned files.
func offsetSorted(extents []ioreq.Extent) bool {
	for i := 1; i < len(extents); i++ {
		if extents[i].Offset < extents[i-1].Offset {
			return false
		}
	}
	return true
}

// sliceRuns maps the coverage-space byte range [lo, hi) back to file-space
// extents, attributing them to aggregator rank aggRank, and appends them to
// dst.
func sliceRuns(dst, runs []ioreq.Extent, lo, hi int64, aggRank int) []ioreq.Extent {
	var pos int64 // coverage-space cursor at the start of each run
	for _, r := range runs {
		runLo, runHi := pos, pos+r.Size
		pos = runHi
		if hi <= runLo || lo >= runHi {
			continue
		}
		s, e := lo, hi
		if s < runLo {
			s = runLo
		}
		if e > runHi {
			e = runHi
		}
		dst = append(dst, ioreq.Extent{
			Offset: r.Offset + (s - runLo),
			Size:   e - s,
			Rank:   aggRank,
		})
	}
	return dst
}
