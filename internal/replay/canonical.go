package replay

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"tunio/internal/hdf5"
	"tunio/internal/lustre"
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
//
// canon is also the cache's ledger. Each artifact is held for as long as an
// indexed kernel points at it: a kernel takes a reference on every artifact
// one of its builds is handed, and gives them all back when it is evicted
// (release). What nobody references is dropped there and then, so canon
// sweeps as it goes and never walks the kernels' maps. held counts the bytes
// of everything held — each stack plan when it is added, each wire plan when
// it is lowered and its phase tables as executions publish them — plus the
// traces of the indexed kernels, which StageCache charges.
type canon struct {
	mu    sync.Mutex
	plans map[uint64][]*planEntry // by content hash; equal hashes are told apart by equal
	wires map[wireKey]*wireEntry
	held  atomic.Int64 // bytes; written under mu, read anywhere
}

// planEntry is a stack plan held once per content, with the number of
// kernel references to it and its charge.
type planEntry struct {
	sp    *StackPlan
	hash  uint64
	refs  int
	bytes int64
}

// wireEntry is the slot a wire plan is lowered through, held under its key:
// its kernel references and its charge — the plan's own bytes once lowered,
// then its tables', per layout, as they are published. A dropped entry
// charges nothing more.
type wireEntry struct {
	slot[*WirePlan]
	cn      *canon
	key     wireKey
	refs    int
	bytes   int64
	tables  []layoutCharge // a handful per plan: scanned, not hashed
	dropped bool
}

// layoutCharge is what the tables a wire plan keeps under one layout are
// charged.
type layoutCharge struct {
	layout lustre.Layout
	bytes  int64
}

// plan returns the stack plan the cache holds for sp's content — sp itself,
// now held, when there was none — and whether sp was new, taking kernel k's
// reference on it. hash must be sp.contentHash(); it is a parameter so a
// test can force a collision. An evicted kernel takes no reference and adds
// nothing: what its session builds from then on is the session's own.
func (cn *canon) plan(k *kernelArtifacts, sp *StackPlan, hash uint64) (*StackPlan, bool) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	for _, e := range cn.plans[hash] {
		if e.sp.equal(sp) {
			if !k.evicted {
				e.refs++
				k.plansHeld = append(k.plansHeld, e)
			}
			return e.sp, false
		}
	}
	if k.evicted {
		return sp, true
	}
	if cn.plans == nil {
		cn.plans = map[uint64][]*planEntry{}
	}
	e := &planEntry{sp: sp, hash: hash, refs: 1, bytes: sp.size()}
	cn.plans[hash] = append(cn.plans[hash], e)
	k.plansHeld = append(k.plansHeld, e)
	cn.held.Add(e.bytes)
	return sp, true
}

// wire returns the wire plan held under key, lowering it with lower — once,
// outside the lock, whoever races — when there is none, and whether this
// call added it, taking kernel k's reference on it. An evicted kernel shares
// a plan that is held but lowers a missing one for itself.
func (cn *canon) wire(k *kernelArtifacts, key wireKey, lower func() *WirePlan) (*WirePlan, bool) {
	cn.mu.Lock()
	e := cn.wires[key]
	if !k.evicted {
		if e == nil {
			if cn.wires == nil {
				cn.wires = map[wireKey]*wireEntry{}
			}
			e = &wireEntry{cn: cn, key: key}
			cn.wires[key] = e
		}
		e.refs++
		k.wiresHeld = append(k.wiresHeld, e)
	}
	cn.mu.Unlock()
	if e == nil {
		return lower(), true
	}
	wp, added, _ := e.get(func() (*WirePlan, error) {
		wp := lower()
		wp.entry = e
		e.charge(wp.size())
		return wp, nil
	})
	return wp, added
}

// charge adds n bytes to the entry and the ledger, unless the entry has
// been dropped.
func (e *wireEntry) charge(n int64) {
	e.cn.mu.Lock()
	defer e.cn.mu.Unlock()
	if !e.dropped {
		e.bytes += n
		e.cn.held.Add(n)
	}
}

// chargeTables brings the charge for the wire plan's tables under layout l
// up to what its slots hold now. Executions publish tables concurrently, so
// the count is taken outside the lock and only ever raises the charge.
func (e *wireEntry) chargeTables(wp *WirePlan, l lustre.Layout) {
	n := tableBytes(wp.tables.Snapshot()[l])
	e.cn.mu.Lock()
	defer e.cn.mu.Unlock()
	if e.dropped {
		return
	}
	i := slices.IndexFunc(e.tables, func(c layoutCharge) bool { return c.layout == l })
	if i < 0 {
		i = len(e.tables)
		e.tables = append(e.tables, layoutCharge{layout: l})
	}
	if prev := e.tables[i].bytes; n > prev {
		e.tables[i].bytes = n
		e.bytes += n - prev
		e.cn.held.Add(n - prev)
	}
}

// release gives back every reference evicted kernel k holds, refunds its
// trace, and drops each artifact no other kernel references. Called with
// the lock held.
func (cn *canon) release(k *kernelArtifacts) {
	k.evicted = true
	cn.held.Add(-k.bytes)
	for _, e := range k.plansHeld {
		if e.refs--; e.refs > 0 {
			continue
		}
		held := cn.plans[e.hash]
		i := slices.Index(held, e)
		if held = slices.Delete(held, i, i+1); len(held) == 0 {
			delete(cn.plans, e.hash)
		} else {
			cn.plans[e.hash] = held
		}
		cn.held.Add(-e.bytes)
	}
	for _, e := range k.wiresHeld {
		if e.refs--; e.refs > 0 {
			continue
		}
		delete(cn.wires, e.key)
		e.dropped = true
		cn.held.Add(-e.bytes)
	}
	k.plansHeld, k.wiresHeld = nil, nil
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
