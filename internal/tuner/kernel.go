package tuner

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"

	"tunio/internal/cinterp"
	"tunio/internal/csrc"
	"tunio/internal/hdf5"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/workload"
)

// KernelSource says what to trace and where traces are kept. Exactly one
// of Workload and Prog selects the kernel; Nprocs is the size of the
// communicator it runs on. That is all a trace depends on: the kernel is
// recorded on a planning library (hdf5.NewPlanner), which has no machine,
// seed or configuration for the trace to depend on.
type KernelSource struct {
	Workload workload.Workload
	Prog     *csrc.File
	Nprocs   int

	// Store, when non-nil, is consulted under Key before recording — on a
	// hit the stored trace and hash are adopted and the kernel never runs —
	// and receives what is recorded here.
	Store *replay.KernelStore
	// Stages is the stage cache the trace is registered in, typically
	// shared across sessions so they hit each other's plans; nil makes a
	// private one. Artifacts are pure functions of (trace, projected
	// parameters), so sharing never changes scores.
	Stages *replay.StageCache
}

// Key names the kernel in a KernelStore before it is recorded: a hash of
// its content — the program as csrc.Format prints it (numbering its
// statements' lines as it does), or a model's type and field values — and
// the process count.
func (s KernelSource) Key() string {
	content := fmt.Sprintf("%T %#v", s.Workload, s.Workload)
	if s.Prog != nil {
		content = csrc.Format(s.Prog)
	}
	sum := sha256.Sum256([]byte(content))
	return hex.EncodeToString(sum[:8]) + "/" + strconv.Itoa(s.Nprocs)
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
// store lookup under the source's Key, else one run on a planning library
// with a recorder attached; the trace's content hash, which is the kernel's
// identity; store publication; registration in the stage cache. One-shot
// sessions, online sessions and the training sweep all come through here,
// so a kernel has one identity whoever saw it first, and two sources that
// record the same trace are one kernel.
func ResolveKernel(src KernelSource) (*Kernel, error) {
	if src.Prog == nil && src.Workload == nil {
		return nil, fmt.Errorf("tuner: no Workload or Prog to record")
	}
	k := &Kernel{Interpreted: src.Prog != nil}
	var key string
	if src.Store != nil {
		key = src.Key()
		if ent, ok := src.Store.Get(key); ok {
			k.Trace, k.Hash, k.StoreHit = ent.Trace, ent.KernelHash, true
		}
	}
	if k.Trace == nil {
		if err := k.record(src); err != nil {
			return nil, err
		}
		if src.Store != nil {
			src.Store.Put(key, replay.KernelEntry{Trace: k.Trace, KernelHash: k.Hash})
		}
	}
	stages := src.Stages
	if stages == nil {
		stages = replay.NewSharedStageCache()
	}
	k.View = stages.Register(k.Hash, k.Trace)
	return k, nil
}

// record runs the kernel once on a planning library and hashes the trace.
func (k *Kernel) record(src KernelSource) error {
	lib, err := hdf5.NewPlanner(hdf5.DefaultConfig(), src.Nprocs)
	if err != nil {
		return fmt.Errorf("tuner: trace recording: %w", err)
	}
	run := func(st *workload.Stack) error {
		_, err := cinterp.Run(src.Prog, st.Lib)
		return err
	}
	if src.Prog == nil {
		run = src.Workload.Run
	}
	t, err := replay.RecordFunc(&workload.Stack{Lib: lib}, run)
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
