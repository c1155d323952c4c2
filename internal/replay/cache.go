package replay

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"tunio/internal/hdf5"
	"tunio/internal/lustre"
	"tunio/internal/params"
)

// wireFootprint is the union of the plan and aggregate footprints: the
// parameters a wire plan depends on.
var wireFootprint = append(append([]string{}, params.PlanStage...), params.AggregateStage...)

// stageShardCount is the number of lock stripes per artifact kind. A
// power of two so shardOf can mask instead of mod; 32 stripes keep the
// probability of two concurrent cold builds colliding on a stripe low
// even at high session counts, while costing only a few hundred bytes.
const stageShardCount = 32

// shardOf hashes a cache key onto a stripe (FNV-1a, masked).
func shardOf(key []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return h & (stageShardCount - 1)
}

// cacheShard is one lock stripe of a sharded artifact map. Readers load
// the published map pointer and look up without any lock; writers take
// the stripe mutex, clone, insert, and republish (copy-on-write). Hit
// and miss traffic is counted with atomics so the read path never
// serializes on accounting either.
type cacheShard[V any] struct {
	m      atomic.Pointer[map[string]V]
	mu     sync.Mutex
	hits   atomic.Int64
	misses atomic.Int64
}

func (s *cacheShard[V]) init() {
	m := map[string]V{}
	s.m.Store(&m)
}

// get is the lock-free read path. key aliases caller scratch; the
// string conversion inside the map index does not allocate.
func (s *cacheShard[V]) get(key []byte) (V, bool) {
	v, ok := (*s.m.Load())[string(key)]
	return v, ok
}

// insertLocked publishes key→v (first writer wins) and returns the
// entry now under the key. Callers must hold s.mu.
func (s *cacheShard[V]) insertLocked(key []byte, v V) V {
	old := *s.m.Load()
	if cur, ok := old[string(key)]; ok {
		return cur
	}
	next := make(map[string]V, len(old)+1)
	for k, ov := range old {
		next[k] = ov
	}
	next[string(key)] = v
	s.m.Store(&next)
	return v
}

func (s *cacheShard[V]) len() int { return len(*s.m.Load()) }

// StageCache memoizes the staged artifacts of one or more traces by
// (kernel, parameter-projection) key: stack plans keyed by the plan
// footprint, wire plans keyed by the plan+aggregate footprint. A GA
// population whose genomes differ only in service-stage parameters
// (striping, mdc_conf) shares a single wire plan across all of them.
//
// A cache holds one trace per registered kernel key, so it can be shared
// process-wide across tuning sessions: two sessions tuning kernels with
// the same content hash — same signature or same recorded trace — hit
// each other's artifacts, because stage planning is a pure function of
// (trace, projected parameters) and never reads the run seed. Safe for
// concurrent use.
//
// Internally the plan and wire maps are sharded by key hash into
// lock-striped copy-on-write buckets: a warm lookup loads the shard's
// published map pointer and bumps an atomic counter — no mutex — while a
// cold build serializes only with other builds on the same stripe. A
// wire-stripe build may take a plan-stripe lock (wire→plan order only),
// so the two lock families cannot deadlock. What a cold build publishes
// under its projection key is the artifact the cache already holds for
// that content, when it holds one (canon): the shard maps count keys, the
// artifacts behind them are far fewer.
type StageCache struct {
	mu     sync.Mutex // guards traces
	traces map[string]*Trace

	plans [stageShardCount]cacheShard[*StackPlan]
	wires [stageShardCount]cacheShard[*WirePlan]
	canon canon // each distinct artifact once; its lock is a leaf

	service serviceCounters // stage-3 table traffic of every plan built here
}

// StageStats counts cache traffic per stage. Hits and misses count
// projection keys answered; PlanDistinct and WireDistinct count the
// artifacts those misses added to the cache — a miss whose content the
// cache already held adds none — so for a whole cache they are the stack
// and wire plans it holds. The service counters are stage 3a's: storage
// phases — an independent transfer of data or metadata, the read behind a
// metadata touch that missed, or one round of a collective transfer —
// charged from a published phase table (hits), planned live and published
// (misses), or planned live because the published table did not fit the
// live file (fallbacks).
type StageStats struct {
	PlanHits         int64 `json:"plan_hits"`
	PlanMisses       int64 `json:"plan_misses"`
	PlanDistinct     int64 `json:"plan_distinct"`
	WireHits         int64 `json:"wire_hits"`
	WireMisses       int64 `json:"wire_misses"`
	WireDistinct     int64 `json:"wire_distinct"`
	ServiceHits      int64 `json:"service_hits"`
	ServiceMisses    int64 `json:"service_misses"`
	ServiceFallbacks int64 `json:"service_fallbacks"`
}

// serviceCounters accumulates stage-3 table traffic. Each execution keeps
// a local tally and adds it here once, at its end.
type serviceCounters struct {
	hits, misses, fallbacks atomic.Int64
}

// add books one execution's tally; a nil receiver (a wire plan lowered
// outside any cache) discards it.
func (c *serviceCounters) add(uses *[lustre.TableUses]int64) {
	if c == nil {
		return
	}
	if n := uses[lustre.TableHit]; n != 0 {
		c.hits.Add(n)
	}
	if n := uses[lustre.TableBuilt]; n != 0 {
		c.misses.Add(n)
	}
	if n := uses[lustre.TableStale]; n != 0 {
		c.fallbacks.Add(n)
	}
}

// into copies the counters into a stats snapshot.
func (c *serviceCounters) into(s *StageStats) {
	s.ServiceHits = c.hits.Load()
	s.ServiceMisses = c.misses.Load()
	s.ServiceFallbacks = c.fallbacks.Load()
}

// PlanHitRate returns the stage-1 hit fraction (0 when never queried).
func (s StageStats) PlanHitRate() float64 {
	if t := s.PlanHits + s.PlanMisses; t > 0 {
		return float64(s.PlanHits) / float64(t)
	}
	return 0
}

// HitRate returns the overall hit fraction across both cached stages
// (0 when never queried) — the headline number for how much of a
// session's stage work the cache absorbed.
func (s StageStats) HitRate() float64 {
	if t := s.PlanHits + s.PlanMisses + s.WireHits + s.WireMisses; t > 0 {
		return float64(s.PlanHits+s.WireHits) / float64(t)
	}
	return 0
}

// WireHitRate returns the stage-2 hit fraction (0 when never queried).
func (s StageStats) WireHitRate() float64 {
	if t := s.WireHits + s.WireMisses; t > 0 {
		return float64(s.WireHits) / float64(t)
	}
	return 0
}

// add accumulates o into s.
func (s *StageStats) add(o StageStats) {
	s.PlanHits += o.PlanHits
	s.PlanMisses += o.PlanMisses
	s.PlanDistinct += o.PlanDistinct
	s.WireHits += o.WireHits
	s.WireMisses += o.WireMisses
	s.WireDistinct += o.WireDistinct
	s.ServiceHits += o.ServiceHits
	s.ServiceMisses += o.ServiceMisses
	s.ServiceFallbacks += o.ServiceFallbacks
}

// NewSharedStageCache returns an empty multi-kernel cache, meant to be
// shared across sessions: callers Register each kernel's trace under its
// content hash and query through per-session Views.
func NewSharedStageCache() *StageCache {
	c := &StageCache{traces: map[string]*Trace{}}
	for i := range c.plans {
		c.plans[i].init()
		c.wires[i].init()
	}
	return c
}

// Register installs the trace for a kernel key. The first registration
// wins: a key already present keeps its trace, which is what lets many
// sessions race to register the same content-addressed kernel.
func (c *StageCache) Register(key string, t *Trace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.traces[key]; !ok {
		c.traces[key] = t
	}
}

// HasKernel reports whether a trace is registered under the key.
func (c *StageCache) HasKernel(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.traces[key]
	return ok
}

// Kernels returns the number of registered kernel traces.
func (c *StageCache) Kernels() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.traces)
}

// Stats returns a snapshot of the cache-wide counters (all views
// combined), merged across shards. Each counter is a
// sum of per-shard atomics, so a snapshot taken while traffic is in
// flight is approximate in the usual monotonic-counter sense; quiescent
// reads — every test and report in this repo — are exact, because a
// completed WireFor has fully retired its counter updates.
func (c *StageCache) Stats() StageStats {
	var s StageStats
	for i := range c.plans {
		s.PlanHits += c.plans[i].hits.Load()
		s.PlanMisses += c.plans[i].misses.Load()
		s.WireHits += c.wires[i].hits.Load()
		s.WireMisses += c.wires[i].misses.Load()
	}
	plans, wires := c.canon.distinct()
	s.PlanDistinct, s.WireDistinct = int64(plans), int64(wires)
	c.service.into(&s)
	return s
}

// View returns a session-local handle on the cache bound to one kernel
// key. Views share the cache's artifacts — a plan built through one view
// is a hit through every other — but each view keeps its own StageStats,
// so a session can report its personal hit rate against the shared cache.
func (c *StageCache) View(kernelKey string) *CacheView {
	return &CacheView{c: c, kernelKey: kernelKey}
}

// CacheView is a per-session window onto a shared StageCache: fixed
// kernel key, private hit/miss counters. The counters are atomics, so a
// warm-path hit through a view touches no mutex at all. Safe for
// concurrent use.
type CacheView struct {
	c         *StageCache
	kernelKey string

	planHits     atomic.Int64
	planMisses   atomic.Int64
	planDistinct atomic.Int64
	wireHits     atomic.Int64
	wireMisses   atomic.Int64
	wireDistinct atomic.Int64
	service      serviceCounters // credited by Runtimes whose View is this view
}

// KernelKey returns the view's kernel key.
func (v *CacheView) KernelKey() string { return v.kernelKey }

// WireFor returns the wire plan of the assignment's configuration under
// the view's kernel, building (and caching, shared) what its projections
// miss. s must be a.Settings() and ppn the cluster's processes per node.
func (v *CacheView) WireFor(a *params.Assignment, s params.StackSettings, ppn int) (*WirePlan, error) {
	var delta StageStats
	wp, err := v.c.wireFor(v.kernelKey, a, s, &delta, ppn)
	if delta.WireHits != 0 {
		v.wireHits.Add(delta.WireHits)
	}
	if delta.WireMisses != 0 {
		v.wireMisses.Add(delta.WireMisses)
		v.wireDistinct.Add(delta.WireDistinct)
		v.planHits.Add(delta.PlanHits)
		v.planMisses.Add(delta.PlanMisses)
		v.planDistinct.Add(delta.PlanDistinct)
	}
	return wp, err
}

// Stats returns the view's private counters: the traffic this view (not
// the whole shared cache) generated.
func (v *CacheView) Stats() StageStats {
	s := StageStats{
		PlanHits:     v.planHits.Load(),
		PlanMisses:   v.planMisses.Load(),
		PlanDistinct: v.planDistinct.Load(),
		WireHits:     v.wireHits.Load(),
		WireMisses:   v.wireMisses.Load(),
		WireDistinct: v.wireDistinct.Load(),
	}
	v.service.into(&s)
	return s
}

// wireFor is what every view's WireFor runs: delta receives the hit/miss
// traffic of this one call (for per-view stats).
//
// The fast path builds the wire key into stack scratch, loads the
// stripe's published map, and returns on a hit — zero locks, zero
// allocations. A miss takes only that stripe's mutex, re-checks (another
// session may have published while we waited), fetches the stack plan
// (itself a striped lookup), and publishes under the projection key the
// wire plan the cache holds for that stack plan and what lowering reads of
// the settings (wireKeyOf) — lowering it only if there is none yet.
func (c *StageCache) wireFor(kernelKey string, a *params.Assignment, s params.StackSettings, delta *StageStats, ppn int) (*WirePlan, error) {
	var scratch [64]byte
	key := append(scratch[:0], kernelKey...)
	key = append(key, 0)
	key = a.AppendProjection(key, wireFootprint)
	// Lowering bakes ppn into metadata-read extents and the aggregator node
	// count, so cluster shapes with equal process counts must not share a
	// wire plan. The stack plan is ppn-free and stays shared (planFor).
	key = binary.AppendUvarint(key, uint64(ppn))
	shard := &c.wires[shardOf(key)]

	if wp, ok := shard.get(key); ok {
		shard.hits.Add(1)
		if delta != nil {
			delta.WireHits++
		}
		return wp, nil
	}

	shard.mu.Lock()
	defer shard.mu.Unlock()
	if wp, ok := shard.get(key); ok {
		// Lost the build race: another session published while we
		// waited for the stripe. Still a miss from this caller's view —
		// it queued behind the build — matching pre-sharding accounting
		// where the second requester blocked on the cache lock.
		shard.hits.Add(1)
		if delta != nil {
			delta.WireHits++
		}
		return wp, nil
	}
	shard.misses.Add(1)
	if delta != nil {
		delta.WireMisses++
	}
	sp, err := c.planFor(kernelKey, a, s.HDF5, delta)
	if err != nil {
		return nil, err
	}
	wp, added := c.canon.wire(wireKeyOf(sp, s, ppn), func() *WirePlan {
		wp := LowerPlan(sp, s.Hints, s.HDF5, ppn)
		wp.service = &c.service
		return wp
	})
	if added && delta != nil {
		delta.WireDistinct++
	}
	return shard.insertLocked(key, wp), nil
}

// planFor returns the stage-1 stack plan for the assignment's plan
// projection. A miss builds the plan and publishes, under the projection
// key, the plan the cache holds for that content: the first one built, so
// every projection of equal content hands out one pointer. Callers may
// hold a wire-stripe mutex; plan stripes are a distinct lock family ordered
// after wire stripes, so this cannot deadlock.
func (c *StageCache) planFor(kernelKey string, a *params.Assignment, cfg hdf5.Config, delta *StageStats) (*StackPlan, error) {
	var scratch [64]byte
	key := append(scratch[:0], kernelKey...)
	key = append(key, 0)
	key = a.AppendProjection(key, params.PlanStage)
	shard := &c.plans[shardOf(key)]

	if sp, ok := shard.get(key); ok {
		shard.hits.Add(1)
		if delta != nil {
			delta.PlanHits++
		}
		return sp, nil
	}

	shard.mu.Lock()
	defer shard.mu.Unlock()
	if sp, ok := shard.get(key); ok {
		shard.hits.Add(1)
		if delta != nil {
			delta.PlanHits++
		}
		return sp, nil
	}
	shard.misses.Add(1)
	if delta != nil {
		delta.PlanMisses++
	}
	c.mu.Lock()
	t, ok := c.traces[kernelKey]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("replay: no trace registered for kernel %q", kernelKey)
	}
	sp, err := BuildStackPlan(t, cfg)
	if err != nil {
		return nil, err
	}
	sp, added := c.canon.plan(sp, sp.contentHash())
	if added && delta != nil {
		delta.PlanDistinct++
	}
	return shard.insertLocked(key, sp), nil
}
