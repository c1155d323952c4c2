package tuner

import (
	"errors"
	"fmt"

	"tunio/internal/cinterp"
	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/workload"
)

// KernelSource says what to trace and where traces are kept. Exactly one
// of Workload and Prog selects the kernel.
type KernelSource struct {
	Workload workload.Workload
	Prog     *csrc.File

	// Cluster is the machine the recording run executes on; Seed seeds
	// that run's stack. Traces capture what the kernel issues, not how the
	// hardware times it, so neither the seed nor anything but the process
	// count shows in the result.
	Cluster *cluster.Cluster
	Seed    int64

	// Store, when non-nil, is consulted under StoreKey before recording —
	// on a hit the stored trace and hash are adopted and the kernel never
	// runs — and receives what is recorded here. StoreKey must identify the
	// kernel's content (a workload name + process count, a hash of the
	// submitted source), never anything seed-dependent.
	Store    *replay.KernelStore
	StoreKey string
	// Stages is the stage cache the trace is registered in, typically
	// shared across sessions so they hit each other's plans; nil makes a
	// private one. Artifacts are pure functions of (trace, projected
	// parameters), so sharing never changes scores.
	Stages *replay.StageCache
}

// Kernel is a resolved kernel: its trace, recorded once or adopted from a
// store, registered in a stage cache under its content hash.
type Kernel struct {
	Trace *replay.Trace
	// Hash is the kernel's content hash: replay.TraceKey of Trace.
	Hash string
	// StoreHit reports that the trace came out of the KernelStore instead
	// of being recorded by this call.
	StoreHit bool
	// View is this caller's window on the stage cache, bound to Hash: it
	// shares artifacts with every other view, and counts its own traffic.
	View *replay.CacheView
	// Interpreted reports that the kernel is a C program rather than a
	// workload model. It selects which reference evaluator's averaging
	// order TraceEvaluator reproduces (see reference_eval_test.go).
	Interpreted bool
}

// ResolveKernel is the one place a kernel's trace is recorded or adopted:
// store lookup, else one run under the space's default configuration with
// a recorder attached; the trace's content hash, which is the kernel's
// identity; store publication; registration in the stage cache. One-shot
// sessions, online sessions and the training sweep all come through here,
// so a kernel has one identity whoever saw it first, and two sources that
// record the same trace are one kernel.
func ResolveKernel(src KernelSource, space []params.Parameter) (*Kernel, error) {
	k := &Kernel{Interpreted: src.Prog != nil}
	stored := src.Store != nil && src.StoreKey != ""
	if stored {
		if ent, ok := src.Store.Get(src.StoreKey); ok {
			k.Trace, k.Hash, k.StoreHit = ent.Trace, ent.KernelHash, true
		}
	}
	if k.Trace == nil {
		if err := k.record(src, space); err != nil {
			return nil, err
		}
		if stored {
			src.Store.Put(src.StoreKey, replay.KernelEntry{Trace: k.Trace, KernelHash: k.Hash})
		}
	}
	stages := src.Stages
	if stages == nil {
		stages = replay.NewSharedStageCache()
	}
	stages.Register(k.Hash, k.Trace)
	k.View = stages.View(k.Hash)
	return k, nil
}

// record runs the kernel once under the default configuration and hashes
// the trace.
func (k *Kernel) record(src KernelSource, space []params.Parameter) error {
	st, err := workload.BuildStack(src.Cluster, params.DefaultAssignment(space).Settings(), src.Seed)
	if err != nil {
		return err
	}
	var t *replay.Trace
	switch {
	case src.Prog != nil:
		t, err = replay.RecordFunc(st, func(st *workload.Stack) error {
			_, err := cinterp.Run(src.Prog, st.Lib)
			return err
		})
	case src.Workload != nil:
		t, err = replay.Record(src.Workload, st)
	default:
		err = fmt.Errorf("no Workload or Prog to record")
	}
	if err != nil {
		return fmt.Errorf("tuner: trace recording: %w", err)
	}
	k.Trace, k.Hash = t, replay.TraceKey(t)
	return nil
}

// Replayer is stage 3 for one kernel on one machine: a view that serves
// wire plans and a pool of stacks to execute them on.
type Replayer struct {
	View   *replay.CacheView
	Stacks *workload.StackPool
}

// Reps is the one rep loop. It fetches the configuration's wire plan and
// replays it reps times on pooled stacks seeded seed, seed+7919, … with the
// machine as it stands at the epoch (0 for a machine that does not drift).
// After each replay it hands the stack — clock, darshan report — to each,
// which does the caller's own accumulation: how perf and time are summed
// is what pins a caller's bits, so the loop is shared and the sums are not.
//
// keep, when non-nil, is the continuation test of a pruned replay
// (replay.ExecWhile): the first rep it stops is handed to each with aborted
// set, ends the loop, and Reps reports aborted. rt is the calling
// goroutine's scratch; its stage-3 table traffic is credited to the view.
func (p Replayer) Reps(rt *replay.Runtime, a *params.Assignment, seed int64, reps int, epoch float64,
	keep func(*workload.Stack) bool, each func(st *workload.Stack, aborted bool)) (aborted bool, err error) {
	s := a.Settings()
	wp, err := p.View.WireFor(a, s, p.Stacks.C.ProcsPerNode)
	if err != nil {
		return false, err
	}
	rt.View = p.View
	for r := 0; r < reps; r++ {
		st, err := p.Stacks.Get(s, seed+int64(r)*7919)
		if err != nil {
			return false, err
		}
		st.Sim.SetEpoch(epoch)
		var while func() bool
		if keep != nil {
			while = func() bool { return keep(st) }
		}
		err = rt.ExecWhile(wp, st, while)
		aborted = errors.Is(err, replay.ErrBudgetExceeded)
		if err == nil || aborted {
			each(st, aborted)
		}
		p.Stacks.Put(st)
		if aborted {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	}
	return false, nil
}
