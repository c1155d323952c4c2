package replay

import (
	"cmp"
	"slices"
	"unsafe"

	"tunio/internal/hdf5"
	"tunio/internal/ioreq"
	"tunio/internal/lustre"
	"tunio/internal/mpiio"
)

// What replay keeps per kernel is bounded by a fixed bytes budget: the
// stage cache's kernels with the artifacts canon holds for them, and the
// kernel store's traces, each against a budget of its own. Every artifact
// is a pure function of its key, so forgetting one is always sound — the
// next job that needs it builds it again, bit for bit. A cache over budget
// evicts its least recently resolved kernels until it is down to the low
// water mark, so that a sweep buys room for many jobs, not one.
//
// The budgets are sized so the working sets of long-lived daemons that
// tune a catalogue of kernels (a handful of applications at a few shapes,
// tens of MB of artifacts) fit twice over and are never evicted; a daemon
// that meets a stream of distinct kernels holds the most recent ones.
const (
	stageBudget = 128 << 20 // stage cache: traces, stack and wire plans, phase tables
	storeBudget = 32 << 20  // kernel store: traces
)

// lowWater is where a sweep of a cache with the given budget stops.
func lowWater(budget int64) int64 { return budget / 4 * 3 }

// Byte charges. Each counts what an artifact keeps in memory — its header
// and the slices it owns, not rounded up to allocation size classes: they
// are a budget's unit, not a heap profile. An artifact is charged when it
// is held and refunded when it is dropped.
const (
	extentBytes = int64(unsafe.Sizeof(ioreq.Extent{}))
	slotBytes   = int64(unsafe.Sizeof(lustre.TableSlot{}))
)

// size charges a trace by its events and the dimensions and hyperslabs
// they carry.
func (t *Trace) size() int64 {
	n := int64(unsafe.Sizeof(*t)) + int64(cap(t.Events))*int64(unsafe.Sizeof(Event{}))
	for i := range t.Events {
		ev := &t.Events[i]
		n += 8*int64(cap(ev.Dims)+cap(ev.Chunk)) + int64(cap(ev.Slabs))*int64(unsafe.Sizeof(Slab{}))
		for _, sl := range ev.Slabs {
			n += 8 * int64(cap(sl.Start)+cap(sl.Count))
		}
	}
	return n
}

// size charges a stack plan by its ops and their extents.
func (sp *StackPlan) size() int64 {
	n := int64(unsafe.Sizeof(*sp)) + int64(cap(sp.ops))*int64(unsafe.Sizeof(hdf5.Op{}))
	for i := range sp.ops {
		n += int64(cap(sp.ops[i].Extents)) * extentBytes
	}
	return n
}

// size charges a wire plan by its ops and what lowering allocated for them:
// metadata extents and collective schedules. An independent transfer's
// extents are its stack plan's, which are charged there.
func (wp *WirePlan) size() int64 {
	n := int64(unsafe.Sizeof(*wp)) + int64(cap(wp.ops))*int64(unsafe.Sizeof(wireOp{}))
	for i := range wp.ops {
		op := &wp.ops[i]
		if op.kind == wMeta {
			n += int64(cap(op.extents)) * extentBytes
		}
		if op.coll != nil {
			n += int64(unsafe.Sizeof(*op.coll)) + int64(cap(op.coll.Rounds))*int64(unsafe.Sizeof(mpiio.CollRound{}))
			for _, r := range op.coll.Rounds {
				n += int64(cap(r.Extents)) * extentBytes
			}
		}
	}
	return n
}

// tableBytes charges the slot array a wire plan keeps under one layout and
// the phase tables executions have published into it.
func tableBytes(slots []lustre.TableSlot) int64 {
	n := int64(len(slots)) * slotBytes
	for i := range slots {
		if t := slots[i].Load(); t != nil {
			n += t.Bytes()
		}
	}
	return n
}

// evict drops least recently resolved kernels, never the one under keep,
// until what the cache holds is at most the low water mark — if it is still
// over its budget once the lock is held. An evicted kernel leaves the index
// only: a session holding a view on it keeps its artifacts and builds
// nothing it did not build before, while canon releases the kernel's
// references and drops what no indexed kernel still points at. Its traffic
// is folded into the cache-wide totals first, so Stats never goes
// backwards.
func (c *StageCache) evict(keep string) {
	c.canon.mu.Lock()
	defer c.canon.mu.Unlock()
	budget := c.limit()
	if c.canon.held.Load() <= budget {
		return
	}
	kernels := c.kernels.Snapshot()
	var gone []string
	for _, key := range leastRecentFirst(kernels, keep, func(k *kernelArtifacts) int64 { return k.used.Load() }) {
		if c.canon.held.Load() <= lowWater(budget) {
			break
		}
		k := kernels[key]
		c.retired.count(&k.plans.traffic, &k.wires.traffic)
		c.canon.release(k)
		gone = append(gone, key)
	}
	c.kernels.Delete(gone...)
	c.evicted += int64(len(gone))
}

// leastRecentFirst returns the keys of m other than skip, least recently
// used first by the stamp used reads — once per entry, so that stamps moving
// meanwhile cannot upset the sort.
func leastRecentFirst[V any](m map[string]V, skip string, used func(V) int64) []string {
	type aged struct {
		key  string
		used int64
	}
	byAge := make([]aged, 0, len(m))
	for key, v := range m {
		if key != skip {
			byAge = append(byAge, aged{key, used(v)})
		}
	}
	slices.SortFunc(byAge, func(a, b aged) int { return cmp.Compare(a.used, b.used) })
	keys := make([]string, len(byAge))
	for i, a := range byAge {
		keys[i] = a.key
	}
	return keys
}

// limit is the cache's bytes budget.
func (c *StageCache) limit() int64 {
	if c.budget > 0 {
		return c.budget
	}
	return stageBudget
}
