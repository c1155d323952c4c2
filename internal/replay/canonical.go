package replay

import (
	"math"
	"slices"
	"sync"

	"tunio/internal/hdf5"
	"tunio/internal/mpiio"
	"tunio/internal/params"
)

// The projection-keyed maps of a StageCache's kernels answer "which artifact
// does this configuration get"; most projections of one kernel get the same
// one. Alignment, sieve and chunk-cache values that leave a kernel's extents
// alone build equal stack plans, and lowering reads less than the aggregate
// footprint declares (cb_nodes means nothing to an independent transfer).
// canon is the cache's second level: it holds each distinct artifact once,
// so projection keys that agree in content share one stack plan, one wire
// plan, one set of collective schedules and one set of phase tables. Only
// misses of the first level come here; a warm lookup never does.
//
// Sharing by content is sound because the artifacts are pure data: a stack
// plan is a function of (trace, plan footprint) that keeps no reference to
// either, so two equal plans are interchangeable whichever kernel or
// projection built them; a wire plan is a function of the stack plan and
// the values in wireKey, and the tables hanging off it check every other
// input against the live file (lustre.File.accepts).
//
// Both maps are plain maps under one leaf mutex, held for a lookup or an
// insert and never across a build: canon spans every kernel, so a clone per
// insert would grow with everything the cache has ever held.
type canon struct {
	mu    sync.Mutex
	plans map[uint64][]*StackPlan // by content hash; equal hashes are told apart by equal
	wires map[wireKey]*slot[*WirePlan]
}

// plan returns the stack plan the cache holds for sp's content — sp itself,
// now held, when there was none — and whether sp was new. hash must be
// sp.contentHash(); it is a parameter so a test can force a collision.
func (cn *canon) plan(sp *StackPlan, hash uint64) (*StackPlan, bool) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	for _, held := range cn.plans[hash] {
		if held.equal(sp) {
			return held, false
		}
	}
	if cn.plans == nil {
		cn.plans = map[uint64][]*StackPlan{}
	}
	cn.plans[hash] = append(cn.plans[hash], sp)
	return sp, true
}

// wire returns the wire plan held under k, lowering it with lower — once,
// outside the lock, whoever races — when there is none, and whether this
// call added it.
func (cn *canon) wire(k wireKey, lower func() *WirePlan) (*WirePlan, bool) {
	cn.mu.Lock()
	s, ok := cn.wires[k]
	if !ok {
		if cn.wires == nil {
			cn.wires = map[wireKey]*slot[*WirePlan]{}
		}
		s = new(slot[*WirePlan])
		cn.wires[k] = s
	}
	cn.mu.Unlock()
	wp, added, _ := s.get(func() (*WirePlan, error) { return lower(), nil })
	return wp, added
}

// wireKey is everything LowerPlan's output depends on: the stack plan (held
// once per content, so the pointer stands for the content), the filled
// hints, the metadata routing switches and the ranks per node — with the
// values lowering then never reads blanked, so configurations that differ
// only in those share a wire plan.
type wireKey struct {
	plan          *StackPlan
	hints         mpiio.Hints
	collMetaOps   bool
	collMetaWrite bool
	metaBlockSize int64
	ppn           int
}

func wireKeyOf(sp *StackPlan, s params.StackSettings, ppn int) wireKey {
	k := wireKey{
		plan:          sp,
		hints:         s.Hints.Fill(sp.Nprocs),
		collMetaOps:   s.HDF5.CollMetadataOps,
		collMetaWrite: s.HDF5.CollMetadataWrite,
		metaBlockSize: s.HDF5.MetaBlockSize,
		ppn:           ppn,
	}
	if !k.hints.CollectiveWrite && !k.hints.CollectiveRead {
		// no transfer is aggregated: the aggregator shape is never read
		k.hints.CBNodes, k.hints.CBBufferSize = 0, 0
	}
	if !k.collMetaWrite {
		k.metaBlockSize = 0 // flushes go out one request per item
	}
	return k
}

// contentHash hashes everything equal compares.
func (sp *StackPlan) contentHash() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h = (h ^ v) * 1099511628211
		h ^= h >> 32
	}
	mix(uint64(sp.Nprocs))
	mix(uint64(sp.Reads))
	for _, name := range sp.Files {
		mix(uint64(len(name)))
		for i := 0; i < len(name); i++ {
			mix(uint64(name[i]))
		}
	}
	for i := range sp.ops {
		op := &sp.ops[i]
		kind := uint64(op.Kind) << 1
		if op.IsWrite {
			kind |= 1
		}
		mix(kind)
		mix(uint64(op.File))
		mix(uint64(op.Items))
		mix(uint64(op.Offset))
		mix(uint64(op.Bytes))
		mix(uint64(op.Ops))
		mix(uint64(op.N))
		mix(math.Float64bits(op.Flops))
		mix(uint64(len(op.Extents)))
		for _, e := range op.Extents {
			mix(uint64(e.Offset))
			mix(uint64(e.Size))
			mix(uint64(e.Rank))
			mix(uint64(e.Count))
			mix(uint64(e.Span))
		}
	}
	return h
}

// equal reports whether two stack plans have the same content.
func (sp *StackPlan) equal(o *StackPlan) bool {
	return sp.Nprocs == o.Nprocs && sp.Reads == o.Reads && slices.Equal(sp.Files, o.Files) &&
		slices.EqualFunc(sp.ops, o.ops, func(a, b hdf5.Op) bool {
			return a.Kind == b.Kind && a.File == b.File && a.IsWrite == b.IsWrite &&
				a.Items == b.Items && a.Offset == b.Offset && a.Bytes == b.Bytes &&
				a.Ops == b.Ops && a.N == b.N && math.Float64bits(a.Flops) == math.Float64bits(b.Flops) &&
				slices.Equal(a.Extents, b.Extents)
		})
}
