package replay

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"tunio/internal/cowmap"
	"tunio/internal/hdf5"
	"tunio/internal/lustre"
	"tunio/internal/params"
)

// slot is a build-once cache entry. Whoever finds a key absent publishes an
// empty slot under it — a pointer copy under the map lock — and the build
// runs through the slot, outside every map lock: exactly one caller builds,
// callers that arrive meanwhile wait for that build, and callers of other
// keys are not held up at all. An error is an outcome like any other (the
// builds are pure functions of the key), handed to every caller of the key.
type slot[V any] struct {
	once sync.Once
	v    V
	err  error
	// held marks a slot published with its outcome already in it (the build
	// that taught a kernel its footprint ran before the key it belongs under
	// was known): the first caller to get it is taken for its builder.
	held bool
}

// get returns the slot's value, running build if no caller has yet; built
// reports whether this call ran it — or is the one a held outcome is
// attributed to.
func (s *slot[V]) get(build func() (V, error)) (v V, built bool, err error) {
	s.once.Do(func() {
		built = true
		if !s.held {
			s.v, s.err = build()
		}
	})
	return s.v, built, s.err
}

// traffic counts one stage's lookups: answered from a map (hits), built
// (misses), and the builds that added an artifact the cache did not hold
// yet (distinct). A kernel keeps one per artifact kind for the cache-wide
// figures, a view one for its session's.
type traffic struct{ hits, misses, distinct atomic.Int64 }

func (t *traffic) book(hit bool) {
	if hit {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
}

// artifacts is one kernel's map of one artifact kind, keyed by the
// projection bytes of the parameters the artifact depends on.
type artifacts[V any] struct {
	m cowmap.Map[string, *slot[V]]
	traffic
}

// lookupOrBuild returns the artifact under the key, building it — once per
// key, whatever races — when the map has none. A hit is one atomic load, a
// map index (key aliases caller scratch; the string conversion inside the
// index does not allocate), a finished sync.Once and two counters: no lock,
// no allocation. The caller that builds books the miss — here and on its
// session's counters — everyone else a hit, so misses count distinct keys.
func (t *artifacts[V]) lookupOrBuild(key []byte, session *traffic, build func() (V, error)) (V, error) {
	s, ok := t.m.Snapshot()[string(key)]
	if !ok {
		s = t.m.Insert(string(key), new(slot[V]))
	}
	v, built, err := s.get(build)
	t.book(!built)
	session.book(!built)
	return v, err
}

// kernelArtifacts is everything the cache holds for one registered kernel:
// its trace, its plan footprint and the stack and wire plans of the
// projections asked for so far. The kernel is the cache's partition: an
// insert clones a map bounded by this kernel's own projections, and
// dropping the kernel is one delete from the index.
//
// A first-level key is the projection of what the kernel reads: which of
// the plan-stage parameters resolving this trace consults at all is a
// property of the trace (hdf5.PlanReads), learned from the kernel's first
// stage-1 build — never assumed — and the rest are blanked in every key, as
// wireKeyOf blanks cb_nodes for an independent transfer. A kernel of
// contiguous datasets does not build again per chunk_cache value, a chunked
// one per sieve_buf_size.
type kernelArtifacts struct {
	trace *Trace
	learn sync.Once             // the first stage-1 build, which sets reads
	reads hdf5.PlanReads        // the plan footprint; read only after learn
	plans artifacts[*StackPlan] // by plan-footprint projection
	wires artifacts[*WirePlan]  // by plan+aggregate projection, then ppn

	used atomic.Int64 // recency: the cache clock when last registered or viewed

	// Under the canon lock: the trace's charge, the references the
	// kernel's builds took on canon's artifacts (one per build handed one),
	// and whether it has been evicted, after which it takes none.
	bytes     int64
	plansHeld []*planEntry
	wiresHeld []*wireEntry
	evicted   bool
}

// StageCache memoizes the staged artifacts of one or more traces by
// (kernel, parameter-projection) key: stack plans keyed by the plan
// footprint, wire plans keyed by the plan+aggregate footprint. A GA
// population whose genomes differ only in service-stage parameters
// (striping, mdc_conf) shares a single wire plan across all of them.
//
// A cache holds one trace per registered kernel key, so it can be shared
// process-wide across tuning sessions: two sessions tuning kernels that
// recorded the same trace hit each other's artifacts, because stage
// planning is a pure function of (trace, projected parameters) and never
// reads the run seed. Safe for concurrent use.
//
// Every map in it is a cowmap.Map: a warm lookup is lock-free, a cold one
// locks only to publish an empty slot and builds outside the lock, so
// distinct keys always build concurrently. What a build publishes is the
// artifact the cache already holds for that content, when it holds one
// (canon): the kernels' maps count keys, the artifacts behind them are far
// fewer.
//
// What the cache holds is bounded by a bytes budget (stageBudget): when a
// registration finds it over, the least recently registered or viewed
// kernels are evicted (evict). Recency is stamped once per job, by Register
// and View; a WireFor hit does no work for it. The zero value is an empty
// cache.
type StageCache struct {
	kernels cowmap.Map[string, *kernelArtifacts]
	canon   canon // each distinct artifact once, and the ledger; its lock is a leaf

	service serviceCounters // stage-3 table traffic of every plan built here
	clock   atomic.Int64    // recency stamps
	budget  int64           // bytes; 0 is stageBudget

	// Under the canon lock: the traffic of evicted kernels and their count.
	retired StageStats
	evicted int64
}

// StageStats counts cache traffic per stage. Hits and misses count
// projection keys answered, and a key projects only what its kernel reads:
// PlanMisses counts stage-1 builds by plan footprint, so configurations
// that differ in a plan-stage parameter the kernel's planning never
// consults are one key and one build. PlanDistinct and WireDistinct count the
// artifacts those misses added to the cache — a miss whose content the
// cache already held adds none — so for a whole cache they are the stack
// and wire plans it holds. The service counters are stage 3a's: storage
// phases — an independent transfer of data or metadata, the read behind a
// metadata touch that missed, or one round of a collective transfer —
// charged from a published phase table (hits), planned live and published
// (misses), or planned live because the published table did not fit the
// live file (fallbacks).
//
// A cache's counters cover every kernel it has held, evicted ones included,
// so they never go backwards; PlanDistinct and WireDistinct count the
// artifacts added over the cache's life. HeldBytes, Kernels and Evicted are
// its occupancy: the bytes it holds and the kernels it indexes now, and the
// kernels it has evicted. A view reports no occupancy.
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
	HeldBytes        int64 `json:"held_bytes,omitempty"`
	Kernels          int   `json:"kernels,omitempty"`
	Evicted          int64 `json:"evicted,omitempty"`
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

// hitRate is hits over lookups, 0 when there were none.
func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// PlanHitRate returns the stage-1 hit fraction (0 when never queried).
func (s StageStats) PlanHitRate() float64 { return hitRate(s.PlanHits, s.PlanMisses) }

// WireHitRate returns the stage-2 hit fraction (0 when never queried).
func (s StageStats) WireHitRate() float64 { return hitRate(s.WireHits, s.WireMisses) }

// HitRate returns the overall hit fraction across both cached stages
// (0 when never queried) — the headline number for how much of a
// session's stage work the cache absorbed.
func (s StageStats) HitRate() float64 {
	return hitRate(s.PlanHits+s.WireHits, s.PlanMisses+s.WireMisses)
}

// count adds the traffic of a plan map and a wire map to the snapshot.
func (s *StageStats) count(plans, wires *traffic) {
	s.PlanHits += plans.hits.Load()
	s.PlanMisses += plans.misses.Load()
	s.PlanDistinct += plans.distinct.Load()
	s.WireHits += wires.hits.Load()
	s.WireMisses += wires.misses.Load()
	s.WireDistinct += wires.distinct.Load()
}

// NewSharedStageCache returns an empty multi-kernel cache, meant to be
// shared across sessions: callers Register each kernel's trace under its
// content hash and query through per-session Views.
func NewSharedStageCache() *StageCache { return new(StageCache) }

// Register installs the trace for a kernel key and returns a view bound to
// the kernel now under it. The first registration wins: a key already
// present keeps its trace, which is what lets many sessions race to
// register the same content-addressed kernel. A registration that finds the
// cache over its budget evicts other kernels; the view keeps its kernel's
// artifacts even if the kernel is evicted after it.
func (c *StageCache) Register(key string, t *Trace) *CacheView {
	k := c.kernels.Snapshot()[key]
	if k == nil {
		k = c.insert(key, t)
	}
	v := c.view(key, k)
	if c.canon.held.Load() > c.limit() {
		c.evict(key)
	}
	return v
}

// insert indexes a kernel for the trace under key, unless one is there, and
// charges the trace of the kernel it added.
func (c *StageCache) insert(key string, t *Trace) *kernelArtifacts {
	fresh := &kernelArtifacts{trace: t, bytes: t.size()}
	c.canon.mu.Lock()
	defer c.canon.mu.Unlock()
	k := c.kernels.Insert(key, fresh)
	if k == fresh {
		c.canon.held.Add(k.bytes)
	}
	return k
}

// Stats returns a snapshot of the cache-wide counters (all views
// combined): the evicted kernels' traffic as it stood at their eviction,
// plus the indexed kernels', plus occupancy. It is taken under the canon
// lock, which an eviction holds while it moves a kernel from the one sum to
// the other, so no snapshot counts a kernel twice or not at all, and no
// later snapshot reads less. Each counter is an atomic, so a snapshot taken
// while traffic is in flight is approximate in the usual monotonic-counter
// sense; quiescent reads — every test and report in this repo — are exact,
// because a completed WireFor has fully retired its counter updates. What a
// session does on a kernel after its eviction its view counts, the cache
// does not.
func (c *StageCache) Stats() StageStats {
	c.canon.mu.Lock()
	s := c.retired
	kernels := c.kernels.Snapshot()
	for _, k := range kernels {
		s.count(&k.plans.traffic, &k.wires.traffic)
	}
	s.HeldBytes, s.Kernels, s.Evicted = c.canon.held.Load(), len(kernels), c.evicted
	c.canon.mu.Unlock()
	c.service.into(&s)
	return s
}

// View returns a session-local handle on the cache bound to one kernel
// key. Views share the cache's artifacts — a plan built through one view
// is a hit through every other — but each view keeps its own StageStats,
// so a session can report its personal hit rate against the shared cache.
func (c *StageCache) View(kernelKey string) *CacheView {
	return c.view(kernelKey, c.kernels.Snapshot()[kernelKey])
}

// view returns a view bound to kernel k (nil: not registered yet) and
// stamps k as resolved now.
func (c *StageCache) view(key string, k *kernelArtifacts) *CacheView {
	if k != nil {
		k.used.Store(c.clock.Add(1))
	}
	return &CacheView{c: c, kernelKey: key, kernel: k}
}

// CacheView is a per-session window onto a shared StageCache: fixed
// kernel key, private hit/miss counters. The counters are atomics, so a
// warm-path hit through a view touches no mutex at all. Safe for
// concurrent use.
type CacheView struct {
	c         *StageCache
	kernelKey string
	kernel    *kernelArtifacts // resolved by View; nil if taken before Register

	plans, wires traffic         // this view's lookups
	service      serviceCounters // credited by Runtimes whose View is this view
}

// KernelKey returns the view's kernel key.
func (v *CacheView) KernelKey() string { return v.kernelKey }

// WireFor returns the wire plan of the assignment's configuration under
// the view's kernel, building (and caching, shared) what its projections
// miss. s must be a.Settings() and ppn the cluster's processes per node.
// A miss fetches the stack plan (planFor) and publishes under the key the
// wire plan the cache holds for that stack plan and what lowering reads of
// the settings (wireKeyOf) — lowering it only if there is none yet.
func (v *CacheView) WireFor(a *params.Assignment, s params.StackSettings, ppn int) (*WirePlan, error) {
	k := v.kernel
	if k == nil {
		// Taken before Register: look again on every call, so the view works
		// from the moment the kernel is registered and nothing is cached
		// about the time before.
		if k = v.c.kernels.Snapshot()[v.kernelKey]; k == nil {
			return nil, fmt.Errorf("replay: no trace registered for kernel %q", v.kernelKey)
		}
	}
	k.learn.Do(func() { v.learn(k, a, s.HDF5) })
	var scratch [32]byte
	key := a.AppendPlanProjection(scratch[:0], k.reads)
	key = a.AppendProjection(key, params.AggregateStage)
	// Lowering bakes ppn into metadata-read extents and the aggregator node
	// count, so cluster shapes with equal process counts must not share a
	// wire plan. The stack plan is ppn-free and stays shared (planFor).
	key = binary.AppendUvarint(key, uint64(ppn))
	return k.wires.lookupOrBuild(key, &v.wires, func() (*WirePlan, error) {
		sp, err := v.planFor(k, a, s.HDF5)
		if err != nil {
			return nil, err
		}
		wp, added := v.c.canon.wire(k, wireKeyOf(sp, s, ppn), func() *WirePlan {
			wp := LowerPlan(sp, s.Hints, s.HDF5, ppn)
			wp.service = &v.c.service
			return wp
		})
		if added {
			k.wires.distinct.Add(1)
			v.wires.distinct.Add(1)
		}
		return wp, nil
	})
}

// Stats returns the view's private counters: the traffic this view (not
// the whole shared cache) generated.
func (v *CacheView) Stats() StageStats {
	var s StageStats
	s.count(&v.plans, &v.wires)
	v.service.into(&s)
	return s
}

// planFor answers a plan-projection key of kernel k. A miss builds the
// stack plan under cfg — which may differ from the key's configuration in
// what the kernel does not read, and builds the same plan.
func (v *CacheView) planFor(k *kernelArtifacts, a *params.Assignment, cfg hdf5.Config) (*StackPlan, error) {
	var scratch [8]byte
	key := a.AppendPlanProjection(scratch[:0], k.reads)
	return k.plans.lookupOrBuild(key, &v.plans, func() (*StackPlan, error) { return v.buildPlan(k, cfg) })
}

// buildPlan is a stage-1 build: it resolves k's trace under cfg and returns
// the plan the cache holds for that content — the first one built, so every
// projection of equal content hands out one pointer.
func (v *CacheView) buildPlan(k *kernelArtifacts, cfg hdf5.Config) (*StackPlan, error) {
	sp, err := BuildStackPlan(k.trace, cfg)
	if err != nil {
		return nil, err
	}
	sp, added := v.c.canon.plan(k, sp, sp.contentHash())
	if added {
		k.plans.distinct.Add(1)
		v.plans.distinct.Add(1)
	}
	return sp, nil
}

// learn is kernel k's first stage-1 build, run once (k.learn) by whichever
// lookup comes first while the others wait: until it has run nobody can say
// which parameters a key of k projects. It sets the footprint the build
// reports — every parameter if the build fails, which costs sharing and
// nothing else — and leaves the outcome under the key it turns out to
// belong to, so the lookup that follows finds its build done and books it.
func (v *CacheView) learn(k *kernelArtifacts, a *params.Assignment, cfg hdf5.Config) {
	sp, err := v.buildPlan(k, cfg)
	k.reads = hdf5.ReadsAlignment | hdf5.ReadsSieveBuf | hdf5.ReadsChunkCache
	if err == nil {
		k.reads = sp.Reads
	}
	key := a.AppendPlanProjection(nil, k.reads)
	k.plans.m.Insert(string(key), &slot[*StackPlan]{v: sp, err: err, held: true})
}
