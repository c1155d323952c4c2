package tunio

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"tunio/internal/cluster"
	"tunio/internal/replay"
	"tunio/internal/tuner"
)

// Re-exported drift/online types (the dynamic-cluster surface).
type (
	// Drift is a deterministic schedule of machine regimes — background
	// load, degraded OSTs, contention phases — switching at simulated
	// timestamps. Attach one to JobSpec.Drift to tune against a
	// time-varying machine.
	Drift = cluster.Drift
	// Regime is one phase of a Drift schedule.
	Regime = cluster.Regime
	// WindowPoint is one completed service window of an online session.
	WindowPoint = tuner.WindowPoint
	// RetuneEvent announces one online re-tune (trigger reason, cost,
	// chosen configuration).
	RetuneEvent = tuner.RetuneEvent
	// DriftResult is the full outcome of an online session.
	DriftResult = tuner.DriftResult
)

// ErrQuotaExceeded is returned by Engine.Tune when the spec's tenant
// already holds its quota of concurrently running sessions.
var ErrQuotaExceeded = errors.New("tunio: tenant quota exceeded")

// ErrUntraceable is what Run.Wait returns (wrapped around the cause) when
// the job's kernel does not record: the one run that captures its trace
// ended in an error. Every genome is scored by replaying that trace, so
// there is nothing to tune on; the session fails rather than score some
// other way. A Discover job gets the paper's §III-B recovery first — the
// full submitted source is recorded in the kernel's place — and fails only
// if that does not record either.
var ErrUntraceable = errors.New("tunio: kernel cannot be traced")

// EngineOptions configure a tuning engine. The zero value is a private
// engine: fresh caches, unbounded workers, no quotas — exactly what a
// one-shot Tune call wants.
type EngineOptions struct {
	// Workers bounds the total number of evaluations in flight across
	// every session the engine runs, machine-wide. Each session still
	// requests its own Parallelism; the engine gate is the global budget
	// they share. 0 means unbounded (each session limited only by its own
	// Parallelism).
	Workers int
	// TenantQuota is the maximum number of concurrently running sessions
	// per tenant; 0 means unlimited.
	TenantQuota int
	// KernelStore, when non-nil, is the content-addressed kernel store to
	// share (e.g. between engines, or a pre-warmed one); nil creates a
	// fresh store owned by this engine.
	KernelStore *replay.KernelStore
}

// Engine runs tuning sessions over one shared evaluation substrate: a
// bounded worker pool, a content-addressed kernel store (kernel identity
// → recorded trace), and a process-global stage cache keyed by (kernel
// hash, parameter projection). Sessions are independent — each gets its
// own GA state, seeds, and genome memo, so a served curve is bit-identical
// to a solo Tune with the same spec — but they share the artifacts that
// are pure functions of kernel content: the second session tuning
// VPIC-shaped I/O skips trace recording entirely and hits the stage plans
// the first session built.
//
// Engine replaces the wiring that used to be inlined in Tune; Tune is now
// a thin shim over a private single-use Engine. All state is carried by
// the Engine value (no package-level state), so tests and servers can run
// as many engines side by side as they like. Safe for concurrent use.
type Engine struct {
	gate   *tuner.Gate
	store  *replay.KernelStore
	stages *replay.StageCache
	quota  int

	mu       sync.Mutex
	active   map[string]int // tenant -> running sessions
	started  int64
	running  int
	done     int64
	failed   int64
	canceled int64
	memoHit  int64
	memoMiss int64
}

// NewEngine returns an engine over the given (or a freshly created)
// kernel store and its own stage cache.
func NewEngine(opts EngineOptions) *Engine {
	store := opts.KernelStore
	if store == nil {
		store = replay.NewKernelStore()
	}
	return &Engine{
		gate:   tuner.NewGate(opts.Workers),
		store:  store,
		stages: replay.NewSharedStageCache(),
		quota:  opts.TenantQuota,
		active: map[string]int{},
	}
}

// EngineStats aggregates an engine's session lifecycle counters and the
// traffic on its shared caches — the observability surface behind
// GET /v1/stats.
type EngineStats struct {
	// Workers is the shared worker budget (0 = unbounded); InFlight the
	// currently held evaluation slots (always 0 when unbounded).
	Workers  int `json:"workers"`
	InFlight int `json:"in_flight"`
	// Session lifecycle counters.
	SessionsStarted  int64 `json:"sessions_started"`
	SessionsActive   int   `json:"sessions_active"`
	SessionsDone     int64 `json:"sessions_done"`
	SessionsFailed   int64 `json:"sessions_failed"`
	SessionsCanceled int64 `json:"sessions_canceled"`
	// MemoHits/MemoMisses total the per-session genome-memo traffic of
	// finished sessions (memos are never shared across sessions: their
	// entries depend on the session seed).
	MemoHits   int64 `json:"memo_hits"`
	MemoMisses int64 `json:"memo_misses"`
	// Stage is the shared stage cache's cache-wide traffic; Kernels the
	// kernel store's.
	Stage   replay.StageStats       `json:"stage"`
	Kernels replay.KernelStoreStats `json:"kernels"`
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	s := EngineStats{
		Workers:          e.gate.Cap(),
		InFlight:         e.gate.InFlight(),
		SessionsStarted:  e.started,
		SessionsActive:   e.running,
		SessionsDone:     e.done,
		SessionsFailed:   e.failed,
		SessionsCanceled: e.canceled,
		MemoHits:         e.memoHit,
		MemoMisses:       e.memoMiss,
	}
	e.mu.Unlock()
	s.Stage = e.stages.Stats()
	s.Kernels = e.store.Stats()
	return s
}

// Tune starts a tuning session and returns immediately with its Run
// handle. Submission errors (bad spec, unknown workload, unparsable
// source, quota) surface here, synchronously; everything after that —
// progress, cancellation, the result — goes through the Run. Canceling
// ctx cancels the session.
func (e *Engine) Tune(ctx context.Context, spec JobSpec) (*Run, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c, kern, space, err := spec.prepare()
	if err != nil {
		return nil, err
	}
	if err := e.acquire(spec.Tenant); err != nil {
		return nil, err
	}

	runCtx, cancel := context.WithCancel(ctx)
	r := &Run{
		tenant:  spec.Tenant,
		cancel:  cancel,
		done:    make(chan struct{}),
		changed: make(chan struct{}),
	}
	if spec.Online != nil {
		go e.runOnlineSession(runCtx, r, spec, space, c, kern)
	} else {
		go e.runSession(runCtx, r, spec, space, c, kern)
	}
	return r, nil
}

// acquire reserves a session slot for the tenant.
func (e *Engine) acquire(tenant string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.quota > 0 && e.active[tenant] >= e.quota {
		return fmt.Errorf("%w: tenant %q already runs %d sessions", ErrQuotaExceeded, tenant, e.active[tenant])
	}
	e.active[tenant]++
	e.started++
	e.running++
	return nil
}

// release returns the tenant's slot and folds the session outcome into
// the engine counters.
func (e *Engine) release(tenant string, res *Result, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.active[tenant]--
	if e.active[tenant] <= 0 {
		delete(e.active, tenant)
	}
	e.running--
	switch {
	case err == nil:
		e.done++
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		e.canceled++
	default:
		e.failed++
	}
	if res != nil {
		e.memoHit += int64(res.CacheHits)
		e.memoMiss += int64(res.CacheMisses)
	}
}
