package tunio

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"tunio/internal/cluster"
	"tunio/internal/core"
	"tunio/internal/csrc"
	"tunio/internal/discovery"
	"tunio/internal/metrics"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/tuner"
	"tunio/internal/workload"
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
// the job's kernel cannot be turned into a trustworthy trace: recording it
// failed, or its exact static I/O signature disagrees with what it
// recorded. Every genome is scored by replaying that trace, so there is
// nothing to tune on; the session fails rather than score some other way.
// A Discover job gets the paper's §III-B recovery first — the full
// submitted source is recorded in the kernel's place — and fails only if
// that cannot be traced either.
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
	// StageCache, when non-nil, is the multi-kernel stage cache to share;
	// nil creates a fresh one owned by this engine.
	StageCache *replay.StageCache
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
	caps   EngineOptions

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

// NewEngine returns an engine over the given (or freshly created) shared
// caches.
func NewEngine(opts EngineOptions) *Engine {
	store := opts.KernelStore
	if store == nil {
		store = replay.NewKernelStore()
	}
	stages := opts.StageCache
	if stages == nil {
		stages = replay.NewSharedStageCache()
	}
	return &Engine{
		gate:   tuner.NewGate(opts.Workers),
		store:  store,
		stages: stages,
		quota:  opts.TenantQuota,
		caps:   opts,
		active: map[string]int{},
	}
}

// KernelStore returns the engine's shared kernel store.
func (e *Engine) KernelStore() *replay.KernelStore { return e.store }

// StageCache returns the engine's shared stage cache.
func (e *Engine) StageCache() *replay.StageCache { return e.stages }

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

// JobSpec describes one tuning session: what to tune (a named workload or
// C source), on what simulated allocation, with which pipeline and
// budget. It is TuneOptions plus the multi-tenant fields (Tenant, Source,
// Fix) the service surface needs.
type JobSpec struct {
	// Workload names a built-in application model ("vpic", "hacc",
	// "flash", "bdcats", "macsio"). Exactly one of Workload and Source
	// must be set.
	Workload string
	// Source is C source code to tune: it is parsed (and, with Discover,
	// reduced to its I/O kernel first) and evaluated SPMD on the
	// simulated stack.
	Source string
	// Discover runs Application I/O Discovery on Source before tuning,
	// so the reduced kernel is what gets recorded and replayed. If the
	// kernel cannot be traced the full Source is (§III-B); the result's
	// EngineInfo.FellBack says so.
	Discover bool
	// Tenant attributes the session for quota accounting ("" is a valid
	// tenant).
	Tenant string

	// Nodes/ProcsPerNode size the simulated allocation (default 4x32).
	Nodes        int
	ProcsPerNode int
	// Agent attaches TunIO's RL components; nil runs the plain HSTuner
	// pipeline. Agents are stateful: give each session its own copy.
	Agent *TunIO
	// Heuristic attaches the 5%/5-iteration heuristic stopper instead
	// (mutually exclusive with Agent).
	Heuristic bool
	// PopSize and MaxIterations bound the genetic pipeline (default 16/50).
	PopSize       int
	MaxIterations int
	// Reps is the number of runs averaged per evaluation (default 3).
	Reps int
	// Seed drives the whole session.
	Seed int64
	// Parallelism is the session's worker count (0 = GOMAXPROCS). Curves
	// are identical for every count. The engine's shared gate additionally
	// bounds the sum across sessions.
	Parallelism int
	// Fix pins named parameters to fixed raw values, restricting the
	// tuned space: the value must appear in the parameter's value list.
	Fix map[string]int64
	// Progress, when non-nil, receives each curve point synchronously on
	// the session goroutine (the Run's Events stream is fed either way).
	Progress func(metrics.Point)

	// Drift attaches a time-varying machine schedule to the simulated
	// cluster. One-shot sessions then tune against the machine as it
	// stands at epoch 0; online sessions (Online != nil) follow the
	// schedule across service windows.
	Drift *Drift
	// Online switches the session to the drift-aware online controller:
	// instead of one tuning run, the session alternates service windows
	// with drift detection and incremental re-tuning. Progress arrives as
	// WindowPoints and RetuneEvents on Run.OnlineEvents (curve points are
	// synthesized from windows so existing clients still see progress);
	// the full DriftResult is available from Run.Drift after Wait.
	Online *OnlineSpec
}

// OnlineSpec configures an online (drift-aware) session. Zero values
// take the controller defaults (tuner.DriftConfig).
type OnlineSpec struct {
	// Windows is the number of service windows to run; WindowGap idle
	// seconds between them.
	Windows   int
	WindowGap float64
	// Threshold/Patience gate drift detection: relative bandwidth
	// deviation and consecutive deviant windows before re-tuning.
	Threshold float64
	Patience  int
	// Neighbors/Rounds/InitRounds size the local-search re-tunes.
	Neighbors  int
	Rounds     int
	InitRounds int
	// Prune aborts a candidate's replay once its partial staged time
	// exceeds the incumbent's total (SHAMan-style; results are
	// bit-identical with it on or off).
	Prune bool
	// GA re-tunes with the genetic pipeline warm-started from the
	// incumbent (sized by the spec's PopSize/MaxIterations) instead of
	// local search.
	GA bool
	// Oracle additionally tracks the zero-delay oracle controller as the
	// regret baseline.
	Oracle bool
}

// OnlineEvent is one online-session progress event: exactly one field
// is set.
type OnlineEvent struct {
	Window *WindowPoint `json:"window,omitempty"`
	Retune *RetuneEvent `json:"retune,omitempty"`
}

// applySpaceOverrides returns the space with every Fix'd parameter pinned
// to a single-value list.
func applySpaceOverrides(space []params.Parameter, fix map[string]int64) ([]params.Parameter, error) {
	if len(fix) == 0 {
		return space, nil
	}
	seen := 0
	out := make([]params.Parameter, len(space))
	copy(out, space)
	for i, p := range out {
		v, ok := fix[p.Name]
		if !ok {
			continue
		}
		seen++
		found := false
		for _, have := range p.Values {
			if have == v {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("tunio: fix %s=%d: value not in the parameter's list %v", p.Name, v, p.Values)
		}
		out[i] = params.Parameter{Name: p.Name, Layer: p.Layer, Values: []int64{v}, Default: 0}
	}
	if seen != len(fix) {
		for name := range fix {
			if params.Index(space, name) < 0 {
				return nil, fmt.Errorf("tunio: fix: unknown parameter %q", name)
			}
		}
	}
	return out, nil
}

// sessionKernel is a job's kernel selection: exactly one of w and prog
// set, plus its content-addressed store identity.
type sessionKernel struct {
	w        workload.Workload
	prog     *csrc.File
	storeKey string
	// full is the submitted source when prog is only its discovered I/O
	// kernel: what §III-B recovery records if prog cannot be traced.
	full string
}

// sourceKey is the kernel-store identity of C source on the cluster.
func sourceKey(src string, c *cluster.Cluster) string {
	sum := sha256.Sum256([]byte(src))
	return "src:" + hex.EncodeToString(sum[:8]) + "/" + strconv.Itoa(c.Procs())
}

// selectKernel validates the spec's kernel selection and parses it.
func selectKernel(spec JobSpec, c *cluster.Cluster) (sessionKernel, error) {
	switch {
	case spec.Workload != "" && spec.Source != "":
		return sessionKernel{}, fmt.Errorf("tunio: Workload and Source are mutually exclusive")
	case spec.Workload != "":
		w, err := workload.ByName(spec.Workload, c.Procs())
		if err != nil {
			return sessionKernel{}, err
		}
		return sessionKernel{
			w:        w,
			storeKey: "workload:" + spec.Workload + "/" + strconv.Itoa(c.Procs()),
		}, nil
	case spec.Source != "":
		kern := sessionKernel{}
		src := spec.Source
		if spec.Discover {
			k, err := core.DiscoverIO(src, discovery.Options{})
			if err != nil {
				return sessionKernel{}, fmt.Errorf("tunio: discovery: %w", err)
			}
			src, kern.full = k.Source, spec.Source
		}
		prog, err := csrc.Parse(src)
		if err != nil {
			return sessionKernel{}, fmt.Errorf("tunio: parsing source: %w", err)
		}
		kern.prog, kern.storeKey = prog, sourceKey(src, c)
		return kern, nil
	}
	return sessionKernel{}, fmt.Errorf("tunio: job needs a Workload name or C Source")
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
	if spec.Agent != nil && spec.Heuristic {
		return nil, fmt.Errorf("tunio: Agent and Heuristic are mutually exclusive")
	}
	nodes, ppn := spec.Nodes, spec.ProcsPerNode
	if nodes == 0 {
		nodes = 4
	}
	if ppn == 0 {
		ppn = 32
	}
	c := cluster.CoriHaswell(nodes, ppn)
	if spec.Drift != nil {
		c.Drift = spec.Drift
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	kern, err := selectKernel(spec, c)
	if err != nil {
		return nil, err
	}
	space, err := applySpaceOverrides(params.Space(), spec.Fix)
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

// runSession is the session goroutine of a one-shot job: trace the
// kernel, then run the genetic pipeline over staged replay of it.
func (e *Engine) runSession(ctx context.Context, r *Run, spec JobSpec, space []params.Parameter, c *cluster.Cluster, kern sessionKernel) {
	cfg := tuner.Config{
		Space:         space,
		PopSize:       spec.PopSize,
		MaxIterations: spec.MaxIterations,
		Seed:          spec.Seed,
		Progress: func(p metrics.Point) {
			r.publish(p)
			if spec.Progress != nil {
				spec.Progress(p)
			}
		},
	}
	switch {
	case spec.Agent != nil:
		spec.Agent.Reset()
		cfg.Stopper = spec.Agent.Stopper
		cfg.Picker = spec.Agent.Picker
	case spec.Heuristic:
		cfg.Stopper = tuner.NewHeuristicStopper()
	}

	k, info, err := e.trace(kern, c, space, spec.Seed)
	var res *Result
	if err == nil {
		// Order-independent seeds, a worker pool under the shared gate, and
		// a genome memo keyed by the kernel's content hash from the first
		// generation on.
		batch := tuner.NewTraceEvaluator(k, c, spec.Reps, spec.Seed).Batch(spec.Parallelism, e.gate)
		if res, err = tuner.RunBatch(ctx, cfg, batch); res != nil {
			info.MemoHits, info.MemoMisses = res.CacheHits, res.CacheMisses
			info.StageStats = k.View.Stats()
			res.EngineInfo = info
		}
	}

	e.release(spec.Tenant, res, err)
	r.finish(res, err)
}

// trace resolves the session's kernel through the engine's kernel store
// and stage cache (tuner.ResolveKernel) — on the session goroutine, so a
// cold kernel's recording run never delays Tune's return. It carries the
// paper's §III-B rule: a discovered I/O kernel that fails to record or to
// cross-validate is given up for the full submitted source, and the
// returned EngineInfo says so. What is still untraceable after that fails
// the session with ErrUntraceable.
func (e *Engine) trace(kern sessionKernel, c *cluster.Cluster, space []params.Parameter, seed int64) (*tuner.Kernel, tuner.EngineInfo, error) {
	src := tuner.KernelSource{
		Workload: kern.w, Prog: kern.prog,
		Cluster: c, Seed: seed,
		Store: e.store, StoreKey: kern.storeKey,
		Stages: e.stages,
	}
	var info tuner.EngineInfo
	k, err := tuner.ResolveKernel(src, space)
	if err != nil && kern.full != "" {
		if full, perr := csrc.Parse(kern.full); perr == nil {
			info.FellBack, info.FallbackErr = true, err.Error()
			src.Prog, src.StoreKey = full, sourceKey(kern.full, c)
			k, err = tuner.ResolveKernel(src, space)
		}
	}
	if err != nil {
		return nil, info, fmt.Errorf("%w: %w", ErrUntraceable, err)
	}
	info.TraceReady, info.KernelHash, info.KernelStoreHit = true, k.Hash, k.StoreHit
	return k, info, nil
}

// runOnlineSession is the session goroutine for online (drift-aware)
// jobs: record (or adopt) the trace, then hand the session to the
// drift controller. Window points double as synthesized curve points so
// point-based clients keep seeing progress.
func (e *Engine) runOnlineSession(ctx context.Context, r *Run, spec JobSpec, space []params.Parameter, c *cluster.Cluster, kern sessionKernel) {
	k, info, err := e.trace(kern, c, space, spec.Seed)
	if err != nil {
		e.release(spec.Tenant, nil, err)
		r.finish(nil, err)
		return
	}
	o := spec.Online
	dcfg := tuner.DriftConfig{
		Space:       space,
		Cluster:     c,
		Trace:       k.Trace,
		Cache:       k.View,
		Seed:        spec.Seed,
		Windows:     o.Windows,
		WindowGap:   o.WindowGap,
		Threshold:   o.Threshold,
		Patience:    o.Patience,
		Neighbors:   o.Neighbors,
		Rounds:      o.Rounds,
		InitRounds:  o.InitRounds,
		Reps:        spec.Reps,
		Prune:       o.Prune,
		Oracle:      o.Oracle,
		Parallelism: spec.Parallelism,
	}
	if o.GA {
		dcfg.GA = &tuner.GARetune{PopSize: spec.PopSize, Iterations: spec.MaxIterations}
	}
	if spec.Agent != nil {
		spec.Agent.Reset()
		dcfg.Picker = spec.Agent.Picker
	}
	var best float64
	dcfg.Progress = func(wp tuner.WindowPoint) {
		w := wp
		r.publishOnline(OnlineEvent{Window: &w})
		if wp.PerfMBs > best {
			best = wp.PerfMBs
		}
		p := metrics.Point{
			Iteration:   wp.Window,
			TimeMinutes: (wp.Start + wp.Runtime) / 60,
			IterPerf:    wp.PerfMBs,
			BestPerf:    best,
		}
		r.publish(p)
		if spec.Progress != nil {
			spec.Progress(p)
		}
	}
	dcfg.OnRetune = func(ev tuner.RetuneEvent) {
		v := ev
		r.publishOnline(OnlineEvent{Retune: &v})
	}

	dres, err := tuner.RunDrift(ctx, dcfg)
	var res *Result
	if dres != nil {
		r.setDrift(dres)
		res = &tuner.Result{
			Best:        dres.Final,
			BestPerf:    dres.MeanPerf,
			Evaluations: dres.Evaluations,
			StoppedAt:   len(dres.Windows),
			Curve:       metrics.Curve(r.Points(0)),
		}
		info.StageStats = k.View.Stats()
		res.EngineInfo = info
	}
	e.release(spec.Tenant, res, err)
	r.finish(res, err)
}

// Run is a live (or finished) tuning session: a progress stream, a cancel
// switch, and the eventual result. All methods are safe for concurrent
// use from any goroutine.
type Run struct {
	tenant string
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	points   []metrics.Point
	online   []OnlineEvent
	dres     *DriftResult
	changed  chan struct{} // closed and replaced on every state change
	finished bool
	res      *Result
	err      error
}

// Tenant returns the tenant the session is attributed to.
func (r *Run) Tenant() string { return r.tenant }

// Cancel aborts the session between evaluations. Wait then returns an
// error wrapping context.Canceled. Canceling a finished run is a no-op.
func (r *Run) Cancel() { r.cancel() }

// Done returns a channel closed when the session has finished (result,
// failure, or cancellation).
func (r *Run) Done() <-chan struct{} { return r.done }

// Wait blocks until the session finishes and returns its outcome.
func (r *Run) Wait() (*Result, error) {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.res, r.err
}

// Result returns the outcome without blocking; ok is false while the
// session is still running.
func (r *Run) Result() (res *Result, err error, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.res, r.err, r.finished
}

// Points returns a copy of the curve points recorded so far, starting at
// index from. The full prefix is retained for the session's lifetime, so
// a late subscriber replays from the beginning.
func (r *Run) Points(from int) []metrics.Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from >= len(r.points) {
		return nil
	}
	return append([]metrics.Point(nil), r.points[from:]...)
}

// Events streams every curve point in order: buffered points replay
// first, live points follow as iterations complete. The channel closes
// when the session has finished and every point was delivered, or when
// ctx is canceled. Multiple concurrent subscribers each get the full
// ordered sequence.
func (r *Run) Events(ctx context.Context) <-chan metrics.Point {
	if ctx == nil {
		ctx = context.Background()
	}
	ch := make(chan metrics.Point)
	go func() {
		defer close(ch)
		next := 0
		for {
			r.mu.Lock()
			pts := append([]metrics.Point(nil), r.points[next:]...)
			changed := r.changed
			finished := r.finished
			r.mu.Unlock()
			for _, p := range pts {
				select {
				case ch <- p:
				case <-ctx.Done():
					return
				}
			}
			next += len(pts)
			if finished && len(pts) == 0 {
				return
			}
			if len(pts) > 0 {
				continue // re-check for points that arrived while sending
			}
			select {
			case <-changed:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch
}

// Drift returns the online session's full result; ok is false while
// the session is running, for one-shot sessions, and for online
// sessions that failed before producing a result.
func (r *Run) Drift() (*DriftResult, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dres, r.dres != nil
}

// OnlineEvents streams an online session's progress in order: buffered
// window and re-tune events replay first, live ones follow. The channel
// closes when the session has finished and every event was delivered,
// or when ctx is canceled. One-shot sessions close it with no events.
func (r *Run) OnlineEvents(ctx context.Context) <-chan OnlineEvent {
	if ctx == nil {
		ctx = context.Background()
	}
	ch := make(chan OnlineEvent)
	go func() {
		defer close(ch)
		next := 0
		for {
			r.mu.Lock()
			evs := append([]OnlineEvent(nil), r.online[next:]...)
			changed := r.changed
			finished := r.finished
			r.mu.Unlock()
			for _, ev := range evs {
				select {
				case ch <- ev:
				case <-ctx.Done():
					return
				}
			}
			next += len(evs)
			if finished && len(evs) == 0 {
				return
			}
			if len(evs) > 0 {
				continue // re-check for events that arrived while sending
			}
			select {
			case <-changed:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch
}

// publishOnline appends an online event and wakes subscribers.
func (r *Run) publishOnline(ev OnlineEvent) {
	r.mu.Lock()
	r.online = append(r.online, ev)
	close(r.changed)
	r.changed = make(chan struct{})
	r.mu.Unlock()
}

// setDrift records the online result before finish.
func (r *Run) setDrift(d *DriftResult) {
	r.mu.Lock()
	r.dres = d
	r.mu.Unlock()
}

// publish appends a curve point and wakes subscribers.
func (r *Run) publish(p metrics.Point) {
	r.mu.Lock()
	r.points = append(r.points, p)
	close(r.changed)
	r.changed = make(chan struct{})
	r.mu.Unlock()
}

// finish records the outcome and wakes everyone.
func (r *Run) finish(res *Result, err error) {
	r.mu.Lock()
	r.res = res
	r.err = err
	r.finished = true
	close(r.changed)
	r.changed = make(chan struct{})
	r.mu.Unlock()
	close(r.done)
}
