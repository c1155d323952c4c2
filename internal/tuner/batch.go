package tuner

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"tunio/internal/cowmap"
	"tunio/internal/params"
)

// EvalResult is one configuration's measured objective: the perf achieved
// and the (simulated) minutes the measurement consumed.
type EvalResult struct {
	Perf        float64
	CostMinutes float64
}

// BatchEvaluator measures a whole generation at once. Implementations may
// evaluate the batch concurrently, but the returned slice is indexed by
// batch position: results[i] belongs to batch[i], so the pipeline can
// commit them in population order regardless of completion order.
//
// Honoring ctx is the implementation's responsibility: a canceled context
// should surface as ctx.Err() (workers in flight may finish first).
type BatchEvaluator interface {
	EvaluateBatch(ctx context.Context, batch []*params.Assignment, iteration int) ([]EvalResult, error)
}

// BatchError wraps a single configuration's evaluation failure with its
// batch position, so RunBatch can report which population member failed.
type BatchError struct {
	Index int
	Err   error
}

// Error implements error.
func (e *BatchError) Error() string {
	return fmt.Sprintf("eval %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying evaluation error.
func (e *BatchError) Unwrap() error { return e.Err }

// Gate bounds the total number of evaluations in flight across every
// pool that shares it — the process-wide worker budget of a multi-session
// engine. Each pool still schedules its own batch (so per-session
// determinism is untouched), but no more than the gate's capacity of
// simulations run at once machine-wide. A nil *Gate means no shared
// bound, so the zero configuration is the historical behavior.
type Gate struct {
	sem chan struct{}
}

// NewGate returns a gate admitting at most n concurrent evaluations;
// n <= 0 returns nil (unbounded).
func NewGate(n int) *Gate {
	if n <= 0 {
		return nil
	}
	return &Gate{sem: make(chan struct{}, n)}
}

// Cap returns the gate's capacity (0 for a nil gate).
func (g *Gate) Cap() int {
	if g == nil {
		return 0
	}
	return cap(g.sem)
}

// InFlight returns the number of held slots (0 for a nil gate).
func (g *Gate) InFlight() int {
	if g == nil {
		return 0
	}
	return len(g.sem)
}

// Enter blocks until a slot is free (no-op for a nil gate). Exported so
// other evaluation loops — the offline training sweep — can share one
// process-wide budget with the tuning pools.
func (g *Gate) Enter() {
	if g != nil {
		g.sem <- struct{}{}
	}
}

// Leave releases a slot taken by Enter (no-op for a nil gate).
func (g *Gate) Leave() {
	if g != nil {
		<-g.sem
	}
}

// EvalFunc scores one configuration: the perf it achieved and the
// (simulated) minutes the measurement consumed, which accumulate into the
// tuning curve. A Pool calls it from many goroutines, so it must be safe
// for concurrent use and deterministic in (assignment, iteration) — never
// in call order (see SeedFor). TraceEvaluator.Evaluate is the production
// one.
type EvalFunc func(a *params.Assignment, iteration int) (perfMBs, costMinutes float64, err error)

// Pool evaluates a batch on a bounded worker pool (FanOut). Under
// EvalFunc's contract its results are bit-identical to a serial pass for
// any worker count: results are committed by batch index, and on multiple
// failures the error of the smallest batch index wins, matching where a
// serial pass would have stopped.
type Pool struct {
	Eval EvalFunc
	// Workers bounds concurrency; 0 means GOMAXPROCS.
	Workers int
	// Gate, when non-nil, additionally bounds concurrency across every
	// pool sharing it: each evaluation holds one gate slot for its
	// duration. Results are unaffected — the gate only schedules.
	Gate *Gate
}

// EvaluateBatch implements BatchEvaluator.
func (p *Pool) EvaluateBatch(ctx context.Context, batch []*params.Assignment, iteration int) ([]EvalResult, error) {
	out := make([]EvalResult, len(batch))
	err := FanOut(ctx, len(batch), p.Workers, p.Gate, func() func(int) error {
		return func(i int) error {
			perf, cost, err := p.Eval(batch[i], iteration)
			out[i] = EvalResult{Perf: perf, CostMinutes: cost}
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FanOut runs do(i) for every i in [0, n) on at most workers goroutines
// (0 means GOMAXPROCS; one worker runs inline, in index order) — the one
// index fan-out behind Pool, the drift controller's candidate blocks and
// the training sweep. Each worker calls worker() once for its own do, so
// per-goroutine scratch (a replay.Runtime) lives in that closure. Every
// do(i) holds one slot of gate (nil = unbounded) for its duration.
//
// Feeding stops when ctx is canceled (indices in flight finish first) and
// the result is then ctx.Err(); otherwise the failure of the smallest
// index wins, as a *BatchError — where a serial pass would have stopped.
func FanOut(ctx context.Context, n, workers int, gate *Gate, worker func() func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		do := worker()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			gate.Enter()
			err := do(i)
			gate.Leave()
			if err != nil {
				return &BatchError{Index: i, Err: err}
			}
		}
		return nil
	}

	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do := worker()
			for i := range idx {
				gate.Enter()
				errs[i] = do(i)
				gate.Leave()
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return &BatchError{Index: i, Err: err}
		}
	}
	return nil
}

// Memo adds a genome-keyed memoization cache in front of a BatchEvaluator:
// a configuration measured once is never re-simulated — later requests
// (within a batch or across generations) reuse the measured (perf, cost).
// The first occurrence in batch order defines the cached value, so curves
// stay bit-identical between serial and parallel execution.
//
// Safe for concurrent use. The cache is a cowmap.Map: a batch whose
// genomes are all cached partitions, counts, and fills entirely from one
// immutable snapshot — zero locks; only batches that actually simulate
// publish. Two goroutines racing on the same uncached genome may both
// simulate it, but SeedFor makes the measurements bit-identical, so which
// publish lands first changes nothing.
type Memo struct {
	Inner BatchEvaluator

	key    atomic.Pointer[memoKey] // swapped whole by SetKernelKey/SetEpoch
	cache  cowmap.Map[string, EvalResult]
	hits   atomic.Int64
	misses atomic.Int64
}

// memoKey is what every cache key starts with: the kernel hash and, once
// set, the drift epoch. Keying (rather than flushing) on epoch keeps the
// invalidation monotonic and race-free — an in-flight batch keeps using
// the prefix it partitioned under. Immutable once published.
type memoKey struct {
	kernKey  string
	epoch    float64
	hasEpoch bool
	prefix   string // the fields above rendered once, prepended to every key
}

// rekey publishes the key change applies to the current one.
func (m *Memo) rekey(change func(*memoKey)) {
	for {
		old := m.key.Load()
		next := *old
		change(&next)
		next.prefix = next.kernKey + "\x00"
		if next.hasEpoch {
			next.prefix += "e" + strconv.FormatUint(math.Float64bits(next.epoch), 16) + "\x00"
		}
		if m.key.CompareAndSwap(old, &next) {
			return
		}
	}
}

// NewMemo wraps inner with an empty cache.
func NewMemo(inner BatchEvaluator) *Memo {
	m := &Memo{Inner: inner}
	m.key.Store(&memoKey{prefix: "\x00"})
	return m
}

// SetKernelKey installs a kernel content hash (see Kernel.Hash)
// as a component of every cache key, so a
// cache serialized or shared beyond one kernel can never return another
// kernel's measurement for the same genome.
func (m *Memo) SetKernelKey(key string) {
	m.rekey(func(k *memoKey) { k.kernKey = key })
}

// SetEpoch installs a drift epoch (a simulated re-tune timestamp) as a
// component of every cache key. Entries written under a different epoch
// — a different cluster regime — can never answer for this one: RunDrift
// re-tunes across an epoch boundary always re-simulate. Epochs under a
// drift schedule are strictly increasing, so a stale regime's entries
// are unreachable forever, not merely unlikely.
func (m *Memo) SetEpoch(epoch float64) {
	m.rekey(func(k *memoKey) { k.epoch, k.hasEpoch = epoch, true })
}

// appendGenomeKey appends the genome's dot-separated value indices.
func appendGenomeKey(b []byte, a *params.Assignment) []byte {
	for i, v := range a.Genome() {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// EvaluateBatch implements BatchEvaluator: cached positions are served
// from the cache; the remaining distinct genomes are forwarded to the
// inner evaluator as one (possibly concurrent) sub-batch.
func (m *Memo) EvaluateBatch(ctx context.Context, batch []*params.Assignment, iteration int) ([]EvalResult, error) {
	out := make([]EvalResult, len(batch))
	keys := make([]string, len(batch))
	prefix, served := m.key.Load().prefix, m.cache.Snapshot()

	// Partition against the cache snapshot at batch start: position i is
	// a miss only if its genome is neither cached nor requested earlier
	// in this batch. This partition is a pure function of (cache, batch),
	// so it is identical however the inner evaluator schedules the work.
	var sub []*params.Assignment
	var subIdx []int                // sub position -> first batch position with that genome
	var fresh map[string]EvalResult // the genomes of sub, by key; measured below
	var scratch [96]byte
	for i, a := range batch {
		kb := append(scratch[:0], prefix...)
		kb = appendGenomeKey(kb, a)
		k := string(kb)
		keys[i] = k
		if _, cached := served[k]; cached {
			continue
		}
		if _, queued := fresh[k]; queued {
			continue
		}
		if fresh == nil {
			fresh = map[string]EvalResult{}
		}
		fresh[k] = EvalResult{}
		sub = append(sub, a)
		subIdx = append(subIdx, i)
	}
	m.hits.Add(int64(len(batch) - len(sub)))
	m.misses.Add(int64(len(sub)))

	if len(sub) > 0 {
		res, err := m.Inner.EvaluateBatch(ctx, sub, iteration)
		if err != nil {
			if be, ok := err.(*BatchError); ok {
				// surface the position the caller asked about
				return nil, &BatchError{Index: subIdx[be.Index], Err: be.Err}
			}
			return nil, err
		}
		for j, r := range res {
			fresh[keys[subIdx[j]]] = r
		}
		m.cache.InsertAll(fresh)
		served = m.cache.Snapshot()
	}

	for i := range batch {
		r, ok := served[keys[i]]
		if !ok {
			return nil, fmt.Errorf("tuner: memo: genome %s missing after evaluation", keys[i])
		}
		out[i] = r
	}
	return out, nil
}

// CacheStats reports how many batch positions were served from the cache
// versus simulated. RunBatch copies these onto the Result.
func (m *Memo) CacheStats() (hits, misses int) {
	return int(m.hits.Load()), int(m.misses.Load())
}

// cacheStatser lets RunBatch surface memoization counters without
// depending on a concrete wrapper type.
type cacheStatser interface {
	CacheStats() (hits, misses int)
}

// SeedFor derives the deterministic per-evaluation RNG seed the batch
// evaluators use: an FNV-1a hash of (iteration, genome) mixed into the
// base seed. Unlike a shared call counter, the derivation is independent
// of evaluation order, which is what lets a generation run on any number
// of workers and still reproduce the serial measurement stream.
func SeedFor(base int64, iteration int, a *params.Assignment) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	mix(uint64(iteration))
	for _, g := range a.Genome() {
		mix(uint64(g))
	}
	return base + int64(h&0x7fffffffffffffff)
}
