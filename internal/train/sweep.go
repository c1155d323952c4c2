package train

import (
	"context"
	"errors"
	"fmt"

	"tunio/internal/core"
	"tunio/internal/replay"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

// replaySweep scores core.SweepPlan's run list through the staged replay
// engine: each kernel runs once to record its trace (or is served whole
// from the kernel store), and every planned configuration is scored by
// replaying cached stage artifacts against pooled stacks.
//
// Per-run results are bit-identical to core.Sweep's direct execution —
// pooled stacks reset to fresh-build state and replay charges the same
// layer code paths in the same order as a live run — and per-run seeds
// come from the plan, so the outcome is independent of Workers. Traces
// come from tuner.ResolveKernel, runs go through tuner.Replayer on
// tuner.FanOut: the same resolve, rep loop and fan-out as a tuning job.
func replaySweep(ctx context.Context, cfg *Config) (*core.SweepResult, []string, error) {
	if len(cfg.Kernels) == 0 {
		return nil, nil, fmt.Errorf("train: sweep needs at least one kernel")
	}
	runs, err := core.SweepPlan(len(cfg.Kernels), cfg.Space, cfg.Seed+1, cfg.ExtraRandomRuns)
	if err != nil {
		return nil, nil, err
	}

	// Record (or fetch) each kernel's trace and bind a replayer per kernel:
	// its own stage cache, one pool of stacks for all.
	stacks := workload.NewStackPool(cfg.Cluster)
	kernels := make([]tuner.Replayer, len(cfg.Kernels))
	kernKeys := make([]string, len(cfg.Kernels))
	for i, w := range cfg.Kernels {
		k, err := tuner.ResolveKernel(tuner.KernelSource{Workload: w, Nprocs: cfg.Cluster.Procs(), Store: cfg.Store})
		if err != nil {
			return nil, nil, fmt.Errorf("train: recording %s: %w", w.Name(), err)
		}
		kernels[i], kernKeys[i] = tuner.Replayer{View: k.View, Stacks: stacks}, k.Hash
	}

	out := &core.SweepResult{
		Space:    cfg.Space,
		Features: make([][]float64, len(runs)),
		Perfs:    make([]float64, len(runs)),
	}
	for i, r := range runs {
		out.Features[i] = r.Assignment.Features()
	}

	err = tuner.FanOut(ctx, len(runs), cfg.Workers, nil, func() func(int) error {
		rt := &replay.Runtime{}
		return func(i int) error {
			return scoreRun(rt, kernels[runs[i].Kernel], runs[i], &out.Perfs[i])
		}
	})
	var be *tuner.BatchError
	if errors.As(err, &be) {
		return nil, nil, fmt.Errorf("train: sweep run %d (%s): %w", be.Index, cfg.Kernels[runs[be.Index].Kernel].Name(), be.Err)
	}
	if err != nil {
		return nil, nil, err
	}
	return out, kernKeys, nil
}

// scoreRun replays one planned configuration once, seeded with the run's
// plan seed, and stores its bandwidth.
func scoreRun(rt *replay.Runtime, p tuner.Replayer, r core.SweepRun, perf *float64) error {
	_, err := p.Reps(rt, r.Assignment, r.Seed, 1, 0, nil, func(st *workload.Stack, _ bool) {
		*perf, _ = workload.Perf(st.Sim.Report)
	})
	return err
}
