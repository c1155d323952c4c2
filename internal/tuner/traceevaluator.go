package tuner

import (
	"context"
	"sync"

	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/workload"
)

// TraceEvaluator scores configurations by staged trace replay: the kernel
// ran exactly once, on a planning library, to record its HDF5-level trace
// (ResolveKernel); every genome is scored by replaying that trace through
// the staged engine (internal/replay), whose per-stage
// artifacts are cached by parameter projection. Replay charges the same
// layer code paths in the same order as a live run, so scores are
// bit-identical to the live reference evaluators'
// (reference_eval_test.go) — the interpreter and workload logic just leave
// the inner loop.
//
// It is the only evaluator production code uses. Safe for concurrent use:
// workers share the stage cache and recycle stacks and runtimes through
// pools.
type TraceEvaluator struct {
	kernel *Kernel
	replay Replayer
	reps   int
	seed   int64
	rts    sync.Pool // *replay.Runtime
}

// NewTraceEvaluator returns an evaluator replaying the resolved kernel on
// the cluster, averaging reps runs per configuration (0 means 3, the
// paper's count) with seeds derived from seed by SeedFor.
func NewTraceEvaluator(k *Kernel, c *cluster.Cluster, reps int, seed int64) *TraceEvaluator {
	if reps == 0 {
		reps = 3
	}
	return &TraceEvaluator{
		kernel: k,
		replay: Replayer{View: k.View, Stacks: workload.NewStackPool(c)},
		reps:   reps,
		seed:   seed,
	}
}

// Batch returns the batch evaluator a tuning run hands to RunBatch: a pool
// of workers goroutines (0 = GOMAXPROCS) under the gate (nil = unbounded)
// calling Evaluate, behind a genome memo keyed by the kernel's content
// hash.
func (e *TraceEvaluator) Batch(workers int, gate *Gate) *Memo {
	m := NewMemo(&Pool{Eval: e.Evaluate, Workers: workers, Gate: gate})
	m.SetKernelKey(e.kernel.Hash)
	return m
}

// RunReplay is RunBatch for callers with no caches to share — experiments,
// examples, tests: it traces the kernel (ResolveKernel) on the cluster's
// process count, whatever src.Nprocs says, and runs the pipeline over
// staged replay of it on c, on GOMAXPROCS workers, seed seeding the
// evaluations. A served job does the same against its engine's kernel
// store, stage cache and gate.
func RunReplay(ctx context.Context, cfg Config, src KernelSource, c *cluster.Cluster, seed int64, reps int) (*Result, error) {
	src.Nprocs = c.Procs()
	k, err := ResolveKernel(src)
	if err != nil {
		return nil, err
	}
	return RunBatch(ctx, cfg, NewTraceEvaluator(k, c, reps, seed).Batch(0, nil))
}

// Evaluate is an EvalFunc. The averaging order follows the reference
// evaluator of the kernel's kind — perf summed then divided and minutes
// accumulated per rep for an interpreted program, per-rep divided perf and
// runtime divided once for a workload model. The two differ only in
// floating-point rounding, and that rounding is what the bit-identity
// tests hold.
func (e *TraceEvaluator) Evaluate(a *params.Assignment, iteration int) (float64, float64, error) {
	rt, _ := e.rts.Get().(*replay.Runtime)
	if rt == nil {
		rt = &replay.Runtime{}
	}
	defer e.rts.Put(rt)

	reps := float64(e.reps)
	interpreted := e.kernel.Interpreted
	var perfSum, minutes, runtime float64
	_, err := e.replay.Reps(rt, a, SeedFor(e.seed, iteration, a), e.reps, 0, nil,
		func(st *workload.Stack, _ bool) {
			perf, _ := workload.Perf(st.Sim.Report)
			if interpreted {
				perfSum += perf
				minutes += st.Sim.Now() / 60
			} else {
				perfSum += perf / reps
				runtime += st.Sim.Now()
			}
		})
	if err != nil {
		return 0, 0, err
	}
	if interpreted {
		return perfSum / reps, minutes, nil
	}
	return perfSum, runtime / 60, nil
}
