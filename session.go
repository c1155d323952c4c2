package tunio

import (
	"context"
	"fmt"

	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/metrics"
	"tunio/internal/params"
	"tunio/internal/tuner"
)

// session is the one session goroutine: trace the kernel, run body over
// it, stamp the result with what the engine knows about the session, give
// the tenant's slot back and finish the Run. body receives the resolved
// kernel and emit, which publishes a curve point on the Run and to the
// spec's Progress callback; whatever result it returns — even beside an
// error — is the Run's.
func (e *Engine) session(r *Run, spec JobSpec, kern sessionKernel,
	body func(k *tuner.Kernel, emit func(metrics.Point)) (*Result, error)) {
	k, info, err := e.trace(kern)
	var res *Result
	if err == nil {
		res, err = body(k, func(p metrics.Point) {
			appendAndWake(r, &r.points, p)
			if spec.Progress != nil {
				spec.Progress(p)
			}
		})
		if res != nil {
			info.MemoHits, info.MemoMisses = res.CacheHits, res.CacheMisses
			info.StageStats = k.View.Stats()
			res.EngineInfo = info
		}
	}
	e.release(spec.Tenant, res, err)
	r.finish(res, err)
}

// runSession is the session body of a one-shot job: the genetic pipeline
// over staged replay of the kernel.
func (e *Engine) runSession(ctx context.Context, r *Run, spec JobSpec, space []params.Parameter, c *cluster.Cluster, kern sessionKernel) {
	e.session(r, spec, kern, func(k *tuner.Kernel, emit func(metrics.Point)) (*Result, error) {
		cfg := tuner.Config{
			Space:         space,
			PopSize:       spec.PopSize,
			MaxIterations: spec.MaxIterations,
			Seed:          spec.Seed,
			Progress:      emit,
		}
		switch {
		case spec.Agent != nil:
			spec.Agent.Reset()
			cfg.Stopper = spec.Agent.Stopper
			cfg.Picker = spec.Agent.Picker
		case spec.Heuristic:
			cfg.Stopper = tuner.NewHeuristicStopper()
		}
		// Order-independent seeds, a worker pool under the shared gate, and
		// a genome memo keyed by the kernel's content hash from the first
		// generation on.
		batch := tuner.NewTraceEvaluator(k, c, spec.Reps, spec.Seed).Batch(spec.Parallelism, e.gate)
		return tuner.RunBatch(ctx, cfg, batch)
	})
}

// trace resolves the session's kernel through the engine's kernel store
// and stage cache (tuner.ResolveKernel) — on the session goroutine, so a
// cold kernel's recording run never delays Tune's return. It carries the
// paper's §III-B rule: a discovered I/O kernel that fails to record is
// given up for the full submitted source, and the returned EngineInfo says
// so. What still does not record after that fails the session with
// ErrUntraceable.
func (e *Engine) trace(kern sessionKernel) (*tuner.Kernel, tuner.EngineInfo, error) {
	src := kern.src
	src.Store, src.Stages = e.store, e.stages
	var info tuner.EngineInfo
	k, err := tuner.ResolveKernel(src)
	if err != nil && kern.full != "" {
		if full, perr := csrc.Parse(kern.full); perr == nil {
			info.FellBack, info.FallbackErr = true, err.Error()
			src.Prog = full
			k, err = tuner.ResolveKernel(src)
		}
	}
	if err != nil {
		return nil, info, fmt.Errorf("%w: %w", ErrUntraceable, err)
	}
	info.TraceReady, info.KernelHash, info.KernelStoreHit = true, k.Hash, k.StoreHit
	return k, info, nil
}

// runOnlineSession is the session body of an online (drift-aware) job:
// the drift controller over the kernel. Window points double as
// synthesized curve points so point-based clients keep seeing progress.
func (e *Engine) runOnlineSession(ctx context.Context, r *Run, spec JobSpec, space []params.Parameter, c *cluster.Cluster, kern sessionKernel) {
	e.session(r, spec, kern, func(k *tuner.Kernel, emit func(metrics.Point)) (*Result, error) {
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
			appendAndWake(r, &r.online, OnlineEvent{Window: &wp})
			if wp.PerfMBs > best {
				best = wp.PerfMBs
			}
			emit(metrics.Point{
				Iteration:   wp.Window,
				TimeMinutes: (wp.Start + wp.Runtime) / 60,
				IterPerf:    wp.PerfMBs,
				BestPerf:    best,
			})
		}
		dcfg.OnRetune = func(ev tuner.RetuneEvent) {
			appendAndWake(r, &r.online, OnlineEvent{Retune: &ev})
		}

		dres, err := tuner.RunDrift(ctx, dcfg)
		if dres == nil {
			return nil, err
		}
		r.setDrift(dres)
		return &tuner.Result{
			Best:        dres.Final,
			BestPerf:    dres.MeanPerf,
			Evaluations: dres.Evaluations,
			StoppedAt:   len(dres.Windows),
			Curve:       metrics.Curve(r.Points(0)),
		}, err
	})
}
