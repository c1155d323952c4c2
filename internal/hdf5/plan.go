package hdf5

import (
	"fmt"
	"slices"

	"tunio/internal/darshan"
	"tunio/internal/ioreq"
	"tunio/internal/mpiio"
)

// This file holds the library's output language and the pure planning
// functions behind it. Every Library, File and Dataset method validates its
// call and books the file-format state once, then hands the operations that
// result to Library.do. A library built over a simulation (NewLibrary)
// charges each op at once through MPI-IO; one built without (NewPlanner)
// collects them, and that list is the staged replay engine's stage-1 plan
// (internal/replay). Both run the same methods over the same state, so a
// replayed plan is extent-for-extent what a live run issues because there is
// no second copy of the model to drift from it.

// OpKind classifies the operations a library call resolves to.
type OpKind uint8

// Operation kinds.
const (
	OpOpen OpKind = iota
	OpMetaRead
	OpMetaTouch
	OpMetaFlush
	OpData
	OpBarrier
	OpCompute
	OpAccount
)

// Op is one operation of the library against the layers below it. Field use
// by kind:
//
//	OpOpen:      File
//	OpMetaRead:  File, Items
//	OpMetaTouch: File, Items
//	OpMetaFlush: File, Items, Offset, Bytes
//	OpData:      File, IsWrite, Extents
//	OpBarrier:   N
//	OpCompute:   Flops
//	OpAccount:   IsWrite, Bytes (app bytes), Ops (app op count)
//
// File indexes the library's files in first-creation order.
type Op struct {
	Kind    OpKind
	File    int32
	IsWrite bool
	Items   int64
	Offset  int64
	Bytes   int64
	Ops     int64
	N       int
	Flops   float64
	Extents []ioreq.Extent
}

// NewPlanner builds a planning library: one with no simulation under it,
// which runs the same calls over the same file-format state as a live
// library and collects the ops they resolve to instead of charging them
// (Plan returns them). The ops depend on cfg's plan-footprint fields only —
// alignment, sieve buffer, chunk cache capacity — and of those on the ones
// Reads names once the calls are made.
func NewPlanner(cfg Config, nprocs int) (*Library, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nprocs <= 0 {
		return nil, fmt.Errorf("hdf5: nprocs must be positive, got %d", nprocs)
	}
	return &Library{cfg: cfg, nprocs: nprocs, files: make(map[string]*File)}, nil
}

// Plan returns what a planning library has collected so far: its files in
// first-creation order and its ops, each with an exact-size copy of its
// extents. The op list is exact-size too — plans are cached for good.
func (l *Library) Plan() (files []string, ops []Op) {
	return l.names, append(make([]Op, 0, len(l.ops)), l.ops...)
}

// do hands one op to the layers below: a planning library keeps it, a live
// one charges it now. f is the file of a file-level op (nil otherwise);
// op.Extents may be scratch, which both consume before returning.
func (l *Library) do(f *File, op Op) error {
	if l.sim != nil {
		return l.charge(f, op)
	}
	if f != nil {
		op.File = f.idx
	}
	if op.Extents != nil {
		// exact-size: a cached plan must not keep append's growth slack
		op.Extents = append(make([]ioreq.Extent, 0, len(op.Extents)), op.Extents...)
	}
	l.ops = append(l.ops, op)
	return nil
}

// charge executes one op against the simulation, in the order and with the
// RNG draws the staged engine's stage 3 reproduces.
func (l *Library) charge(f *File, op Op) error {
	switch op.Kind {
	case OpOpen:
		mpf, err := mpiio.Open(l.sim, l.backend(f.name), f.name, l.nprocs, l.hints)
		f.mpf = mpf
		return err
	case OpMetaTouch:
		// repeated accesses go through the metadata cache: only misses
		// reach storage
		op.Items = MetaMisses(op.Items, l.cfg.MDC.HitRate(), l.sim.Rand().Float64())
		fallthrough
	case OpMetaRead:
		if op.Items <= 0 {
			return nil
		}
		extents := MetaReadExtents(l.cfg.CollMetadataOps, l.nprocs, l.sim.Cluster.ProcsPerNode, op.Items, l.metaBuf[:0])
		l.metaBuf = extents[:0]
		elapsed, err := f.mpf.ReadIndependent(extents)
		l.sim.Report.At(darshan.HDF5).AddMeta(op.Items, elapsed)
		return err
	case OpMetaFlush:
		requests := MetaFlushRequests(l.cfg.CollMetadataWrite, l.cfg.MetaBlockSize, op.Bytes, op.Items)
		ext := []ioreq.Extent{{Offset: op.Offset, Size: op.Bytes, Rank: 0, Count: requests}}
		elapsed, err := f.mpf.WriteIndependent(ext)
		l.sim.Report.At(darshan.HDF5).AddMeta(op.Items, elapsed)
		return err
	case OpData:
		var elapsed float64
		var err error
		switch {
		case op.IsWrite && l.hints.CollectiveWrite:
			elapsed, err = f.mpf.WriteAll(op.Extents)
		case op.IsWrite:
			elapsed, err = f.mpf.WriteIndependent(op.Extents)
		case l.hints.CollectiveRead:
			elapsed, err = f.mpf.ReadAll(op.Extents)
		default:
			elapsed, err = f.mpf.ReadIndependent(op.Extents)
		}
		l.acc += elapsed
		return err
	case OpBarrier:
		l.sim.Barrier(op.N)
	case OpCompute:
		l.sim.Compute(op.Flops)
	case OpAccount:
		// application-layer accounting: one op per H5Dwrite/H5Dread call
		lc := l.sim.Report.At(darshan.HDF5)
		if op.IsWrite {
			lc.WriteOps += op.Ops
			lc.BytesWritten += op.Bytes
			lc.WriteTime += l.acc
		} else {
			lc.ReadOps += op.Ops
			lc.BytesRead += op.Bytes
			lc.ReadTime += l.acc
		}
	}
	return nil
}

// Metadata items read when opening a file (superblock + root group) and a
// dataset.
const (
	openFileMetaItems    = 4
	openDatasetMetaItems = 2
)

// metaItemsFor returns the number of metadata items bytes of new dirty
// metadata occupy (the unit addMetadata accounts in).
func metaItemsFor(bytes int64) int64 {
	items := (bytes + metaItemSize - 1) / metaItemSize
	if items < 1 {
		items = 1
	}
	return items
}

// MetaReadExtents builds the extents of a metadata read of items items:
// one read from rank 0 under collective metadata ops, otherwise one per
// node (clients on a node share the Lustre client cache). The extents are
// appended to dst, which may be nil or a reused buffer.
func MetaReadExtents(collective bool, nprocs, ppn int, items int64, dst []ioreq.Extent) []ioreq.Extent {
	if items <= 0 {
		return dst
	}
	if collective {
		return append(dst, ioreq.Extent{
			Offset: 0, Size: items * metaItemSize, Rank: 0, Count: items,
		})
	}
	nodes := (nprocs + ppn - 1) / ppn
	for n := 0; n < nodes; n++ {
		dst = append(dst, ioreq.Extent{
			Offset: 0, Size: items * metaItemSize, Rank: n * ppn, Count: items,
		})
	}
	return dst
}

// MetaFlushRequests returns the request count of a metadata flush of bytes
// dirty bytes in items items: aggregated into metaBlockSize blocks under
// collective metadata writes, one small write per item otherwise.
func MetaFlushRequests(collective bool, metaBlockSize, bytes, items int64) int64 {
	if !collective {
		return items
	}
	block := metaBlockSize
	if block < metaItemSize {
		block = metaItemSize
	}
	return (bytes + block - 1) / block
}

// MetaMisses returns how many of items metadata touches miss a cache with
// the given hit rate. draw is a uniform [0,1) variate that resolves the
// fractional expected miss stochastically; callers must consume exactly
// one RNG draw per call to keep replayed noise streams aligned.
func MetaMisses(items int64, hitRate, draw float64) int64 {
	miss := float64(items) * (1 - hitRate)
	misses := int64(miss)
	if draw < miss-float64(misses) {
		misses++
	}
	return misses
}

// contiguousSlabExtents converts one slab of a contiguous-layout dataset
// into file extents, applying sieve-buffer coalescing of small strided
// segments. Extents are appended to dst (which may be a reused buffer).
func (l *Library) contiguousSlabExtents(space Space, sl Slab, dataOffset int64, dst []ioreq.Extent) []ioreq.Extent {
	g := space.Geometry(sl)
	totalBytes := g.SegBytes * g.NSegments

	// one segment is one request whatever the sieve buffer: it is not read
	if g.NSegments == 1 {
		return append(dst, ioreq.Extent{
			Offset: dataOffset + g.FirstByte,
			Size:   totalBytes,
			Rank:   sl.Rank,
		})
	}

	// Sieve buffer: small strided segments coalesce into sieve-sized
	// requests over the slab's span, reducing the effective request count.
	effSegs := g.NSegments
	if sieve := l.sieveBufSize(); sieve > 0 && g.SegBytes < sieve {
		perSieve := sieve / g.SegBytes
		if perSieve > 1 {
			effSegs = (g.NSegments + perSieve - 1) / perSieve
		}
	}

	// Group segments into at most maxExtentsPerSlab representative extents.
	groups := effSegs
	if groups > maxExtentsPerSlab {
		groups = maxExtentsPerSlab
	}
	segsPerGroup := (g.NSegments + groups - 1) / groups
	reqsPerGroup := (effSegs + groups - 1) / groups

	var cur int64
	var groupStart int64 = -1
	var groupBytes int64
	var inGroup int64
	space.ForEachSegment(sl, func(off, size int64) bool {
		if groupStart < 0 {
			groupStart = off
		}
		groupBytes += size
		inGroup++
		cur++
		if inGroup == segsPerGroup || cur == g.NSegments {
			dst = append(dst, ioreq.Extent{
				Offset: dataOffset + groupStart,
				Size:   groupBytes,
				Rank:   sl.Rank,
				Count:  reqsPerGroup,
				Span:   off + size - groupStart, // true strided footprint
			})
			groupStart = -1
			groupBytes = 0
			inGroup = 0
		}
		return true
	})
	return dst
}

// chunkPlanner holds the chunk layout and allocation bookkeeping of one
// chunked dataset and turns transfer phases into extents.
type chunkPlanner struct {
	name  string
	space Space
	dims  []int64 // chunk dims
	grid  []int64 // chunks per dimension
	bytes int64   // bytes per chunk

	off     map[int64]int64 // chunk linear index -> file offset
	written map[int64]int64 // bytes ever written per chunk

	// Reusable per-Plan scratch (one planner serves sequential phases).
	works    []chunkWork
	workIdx  map[int64]int
	order    []int64
	readBuf  []ioreq.Extent
	dataBuf  []ioreq.Extent
	lo, hi   []int64
	coord    []int64
	boxStart []int64
	boxCount []int64
	locStart []int64
}

type chunkWork struct {
	linear  int64
	covered int64
	pieces  []ioreq.Extent // in-chunk extents (chunk-relative)
}

// newChunkPlanner validates the chunk dims against the dataspace and
// returns a planner.
func newChunkPlanner(name string, space Space, chunkDims []int64) (*chunkPlanner, error) {
	if len(chunkDims) != len(space.Dims) {
		return nil, fmt.Errorf("hdf5: chunk rank %d does not match dataspace rank %d", len(chunkDims), len(space.Dims))
	}
	p := &chunkPlanner{
		name:    name,
		space:   space,
		dims:    append([]int64(nil), chunkDims...),
		grid:    make([]int64, len(chunkDims)),
		bytes:   space.Elem,
		off:     make(map[int64]int64),
		written: make(map[int64]int64),
		workIdx: make(map[int64]int),
	}
	for i, c := range chunkDims {
		if c <= 0 || c > space.Dims[i] {
			return nil, fmt.Errorf("hdf5: chunk dim %d is %d, want 1..%d", i, c, space.Dims[i])
		}
		p.bytes *= c
		p.grid[i] = (space.Dims[i] + c - 1) / c
	}
	n := len(chunkDims)
	p.lo = make([]int64, n)
	p.hi = make([]int64, n)
	p.coord = make([]int64, n)
	p.boxStart = make([]int64, n)
	p.boxCount = make([]int64, n)
	p.locStart = make([]int64, n)
	return p, nil
}

// forEachTouchedChunk invokes fn for every chunk a slab intersects, with
// the chunk's linear index and grid coordinates.
func (p *chunkPlanner) forEachTouchedChunk(sl Slab, fn func(linear int64, gridCoord []int64)) {
	n := len(p.dims)
	lo, hi := p.lo, p.hi
	for i := 0; i < n; i++ {
		lo[i] = sl.Start[i] / p.dims[i]
		hi[i] = (sl.Start[i] + sl.Count[i] - 1) / p.dims[i]
	}
	coord := p.coord
	copy(coord, lo)
	for {
		linear := int64(0)
		for i := 0; i < n; i++ {
			linear = linear*p.grid[i] + coord[i]
		}
		fn(linear, coord)
		carry := true
		for i := n - 1; i >= 0 && carry; i-- {
			coord[i]++
			if coord[i] <= hi[i] {
				carry = false
			} else {
				coord[i] = lo[i]
			}
		}
		if carry {
			return
		}
	}
}

// chunkPhase is the I/O a chunked transfer phase performs: an optional
// read-modify-write prefetch, the data extents, the chunk-index metadata
// touches, and how many chunks were newly allocated (each adds one
// metaItemSize metadata item). The Read/Data slices are planner-owned
// scratch, valid until the next Plan call.
type chunkPhase struct {
	Read        []ioreq.Extent
	Data        []ioreq.Extent
	MetaTouches int64
	NewChunks   int64
}

// Plan resolves one collective transfer phase against the chunk state:
// which chunks are touched, which need read-modify-write, what lands in
// the chunk cache, and where newly allocated chunks go (via alloc, which
// must apply the file's alignment policy and advance its allocator).
func (p *chunkPlanner) plan(slabs []Slab, isWrite bool, cache *chunkCache, alloc func(size int64) int64) chunkPhase {
	p.works = p.works[:0]
	clear(p.workIdx)

	for _, sl := range slabs {
		p.forEachTouchedChunk(sl, func(linear int64, gridCoord []int64) {
			boxStart, boxCount := p.boxStart, p.boxCount
			for i, gc := range gridCoord {
				boxStart[i] = gc * p.dims[i]
				boxCount[i] = min64s(p.dims[i], p.space.Dims[i]-boxStart[i])
			}
			inter, ok := p.space.intersect(sl, boxStart, boxCount)
			if !ok {
				return
			}
			// chunk-relative slab in chunk-local space
			local := Slab{Rank: sl.Rank, Start: p.locStart, Count: inter.Count}
			for i := range gridCoord {
				local.Start[i] = inter.Start[i] - boxStart[i]
			}
			chunkSpace := Space{Dims: p.dims, Elem: p.space.Elem}
			g := chunkSpace.Geometry(local)
			bytes := chunkSpace.SlabBytes(local)

			idx, ok := p.workIdx[linear]
			if !ok {
				if len(p.works) < cap(p.works) {
					p.works = p.works[:len(p.works)+1]
				} else {
					p.works = append(p.works, chunkWork{})
				}
				idx = len(p.works) - 1
				w := &p.works[idx]
				w.linear = linear
				w.covered = 0
				w.pieces = w.pieces[:0]
				p.workIdx[linear] = idx
			}
			w := &p.works[idx]
			w.covered += bytes
			w.pieces = append(w.pieces, ioreq.Extent{
				Offset: g.FirstByte, // chunk-relative; rebased below
				Size:   bytes,
				Rank:   sl.Rank,
				Count:  g.NSegments,
				Span:   g.SpanBytes,
			})
		})
	}

	// Deterministic ordering of chunks.
	p.order = p.order[:0]
	for i := range p.works {
		p.order = append(p.order, p.works[i].linear)
	}
	slices.Sort(p.order)

	ph := chunkPhase{Read: p.readBuf[:0], Data: p.dataBuf[:0]}
	for _, linear := range p.order {
		w := &p.works[p.workIdx[linear]]
		off, allocated := p.off[linear]
		if !allocated {
			off = alloc(p.bytes)
			p.off[linear] = off
			ph.NewChunks++ // chunk index entry (metaItemSize of metadata)
		}
		ph.MetaTouches++ // chunk index lookup

		if isWrite {
			prior := p.written[linear]
			partial := w.covered < p.bytes
			if partial && prior > 0 && !cache.contains(p.name, linear) {
				// read-modify-write: fetch the chunk first
				ph.Read = append(ph.Read, ioreq.Extent{
					Offset: off, Size: p.bytes, Rank: w.pieces[0].Rank,
				})
			}
			cache.insert(p.name, linear, p.bytes)
			p.written[linear] = min64s(prior+w.covered, p.bytes)
			for _, piece := range w.pieces {
				piece.Offset += off
				ph.Data = append(ph.Data, piece)
			}
		} else {
			if cache.contains(p.name, linear) {
				continue // served from cache
			}
			// HDF5 reads whole chunks through the cache.
			ph.Data = append(ph.Data, ioreq.Extent{
				Offset: off, Size: p.bytes, Rank: w.pieces[0].Rank,
			})
			cache.insert(p.name, linear, p.bytes)
		}
	}
	p.readBuf = ph.Read[:0]
	p.dataBuf = ph.Data[:0]
	return ph
}
