package replay

import (
	"errors"
	"fmt"
	"slices"

	"tunio/internal/cowmap"
	"tunio/internal/darshan"
	"tunio/internal/hdf5"
	"tunio/internal/ioreq"
	"tunio/internal/lustre"
	"tunio/internal/mpiio"
	"tunio/internal/workload"
)

// The staged replay engine factors scoring a recorded trace under a
// configuration into three stages mirroring the stack layers a transfer
// flows through:
//
//	trace --(1: BuildStackPlan)--> StackPlan --(2: LowerPlan)--> WirePlan --(3: Runtime.Exec)--> report
//
// Stage 1 resolves HDF5-level behavior — allocation/alignment, sieve
// coalescing, chunk planning with read-modify-write and chunk-cache
// decisions, metadata dirtying — into file extents and abstract metadata
// operations. It holds no model of its own: the trace is walked through the
// hdf5 library built without a simulation (hdf5.NewPlanner), by the loop
// that walks it through a live one (walk, replay.go), and the plan is the
// list of hdf5.Op the library resolved the calls to. It reads only the
// plan-footprint parameters (alignment, sieve buffer, chunk cache;
// params.PlanStage).
//
// Stage 2 lowers planned operations onto the MPI-IO wire: collective
// transfers get their two-phase aggregation schedule (mpiio.PlanCollective),
// metadata reads materialize per-rank or collective extents, and metadata
// flushes get their request counts. It additionally reads the aggregate
// footprint (params.AggregateStage).
//
// Both artifacts are pure integer data — no clock, RNG, or backend state —
// so they are cacheable by parameter projection (StageCache) and one
// artifact scores every genome that shares the projection. Stage 3 replays
// the wire plan against a live stack, consuming the service-footprint
// parameters (striping, metadata-cache level) plus the run seed; it charges
// time and counters through the same cluster/lustre/mpiio code paths in the
// same order as a live run, so its report is bit-identical to one.
//
// Stage 3 has an integer half of its own (stage 3a): splitting a phase's
// extents over the stripe layout reads the striping but no clock, RNG or
// drift schedule. The wire plan memoizes that half for every storage phase —
// an independent transfer of data or metadata is one phase, a collective one
// a phase per two-phase round — as lustre phase tables, one slot per phase
// per lustre.Layout, filled by the first execution that reaches the phase.
// The read behind a metadata touch is the one phase whose extents a run
// decides: they follow from how many of the touched items miss the metadata
// cache, which the cache level and one rounding draw settle, so the touches
// of one file and item count share a slot per (level, rounded up or not).
// Phases on non-Lustre files are split live every time, as is any phase
// whose table the live file does not accept.

// StackPlan is the stage-1 artifact: the trace resolved to file extents and
// abstract metadata operations under one plan-footprint projection — the ops
// the library itself resolves the trace's calls to.
type StackPlan struct {
	Nprocs int
	Files  []string
	// Reads is the plan footprint: which of the plan-stage parameters
	// resolving the trace consulted at all. It is the same set under every
	// configuration (see hdf5.PlanReads), so a configuration that differs
	// from this plan's only outside it resolves to an equal plan.
	Reads hdf5.PlanReads
	ops   []hdf5.Op
}

// BuildStackPlan resolves the trace under cfg's plan-footprint fields
// (alignment policy, sieve buffer, chunk cache capacity) by walking it
// through a planning library: the calls, the file-format state and the
// refusals are those of a live run. The returned plan is immutable and safe
// to lower concurrently.
func BuildStackPlan(t *Trace, cfg hdf5.Config) (*StackPlan, error) {
	if t == nil || t.Nprocs <= 0 {
		return nil, fmt.Errorf("replay: plan of empty trace")
	}
	lib, err := hdf5.NewPlanner(cfg, t.Nprocs)
	if err != nil {
		return nil, err
	}
	if err := walk(t, lib, false); err != nil {
		return nil, err
	}
	plan := &StackPlan{Nprocs: t.Nprocs, Reads: lib.Reads()}
	plan.Files, plan.ops = lib.Plan()
	return plan, nil
}

type wireOpKind uint8

const (
	wOpen      wireOpKind = iota
	wIndep                // independent data transfer: served through a phase-table slot
	wMeta                 // independent metadata transfer, charged to the hdf5 meta counters: likewise
	wColl                 // collective data transfer: a phase-table slot per round
	wMetaTouch            // metadata-cache lookup; its misses are read through a slot of its touch group
	wBarrier
	wCompute
	wAccount
)

// wireOp is one stage-2 operation.
type wireOp struct {
	kind      wireOpKind
	file      int32
	isWrite   bool
	slot      int32 // wMetaTouch: first slot of the op's group within the touch slots
	metaItems int64
	n         int
	flops     float64
	bytes     int64
	ops       int64
	extents   []ioreq.Extent
	coll      *mpiio.CollPlan
}

// WirePlan is the stage-2 artifact: the stack plan lowered onto the MPI-IO
// wire under one aggregate-footprint projection. Its operations are
// immutable and one wire plan serves any number of concurrent stage-3
// executions; the phase tables those executions leave behind (stage 3a)
// only ever grow, for as long as the plan lives.
type WirePlan struct {
	Nprocs      int
	PPN         int
	Files       []string
	CollMetaOps bool
	ops         []wireOp

	// phases counts the storage phases with extents fixed at lowering: one
	// per independent transfer (wIndep, wMeta), one per round of a
	// collective one (wColl). The n-th of them in op order owns slot n of
	// every layout's slot array. touches counts the touch groups — the
	// distinct (file, items) of the wMetaTouch ops — whose touchSlots slots
	// each follow the phases'.
	phases  int
	touches int
	tables  cowmap.Map[lustre.Layout, []lustre.TableSlot]

	service *serviceCounters // the owning cache's stage-3 counters, if any
	entry   *wireEntry       // the owning cache's entry, charged for the tables, if any
}

// slotsFor returns the plan's phase-table slots under the layout, adding
// an empty array the first time a layout is seen (the warm path is one
// atomic load and a map lookup).
func (wp *WirePlan) slotsFor(l lustre.Layout) []lustre.TableSlot {
	if slots, ok := wp.tables.Snapshot()[l]; ok {
		return slots
	}
	return wp.tables.Insert(l, make([]lustre.TableSlot, wp.phases+touchSlots*wp.touches))
}

// touchSlots is the number of slots a touch group holds: a touch of given
// items reads floor(items·missRate) items or one more, per cache level.
const touchSlots = 2 * (int(hdf5.MDCAggressive) + 1)

// touchSlot returns, within a group's slots, the one for a touch that missed
// misses of items items at the cache level.
func touchSlot(level hdf5.MDCLevel, items, misses int64) int {
	// a draw of 1 never rounds up
	return 2*int(level) + int(misses-hdf5.MetaMisses(items, level.HitRate(), 1))
}

// LowerPlan lowers a stack plan onto the wire for the given (unfilled)
// hints, cfg's aggregate-footprint fields, and ppn processes per node.
func LowerPlan(sp *StackPlan, hints mpiio.Hints, cfg hdf5.Config, ppn int) *WirePlan {
	h := hints.Fill(sp.Nprocs)
	wp := &WirePlan{
		Nprocs:      sp.Nprocs,
		PPN:         ppn,
		Files:       sp.Files,
		CollMetaOps: cfg.CollMetadataOps,
		ops:         make([]wireOp, 0, len(sp.ops)),
	}
	type touchGroup struct {
		file  int32
		items int64
	}
	var groups []touchGroup // a handful per plan: scanned, not hashed
	for i := range sp.ops {
		op := &sp.ops[i]
		switch op.Kind {
		case hdf5.OpOpen:
			wp.ops = append(wp.ops, wireOp{kind: wOpen, file: op.File})
		case hdf5.OpMetaRead:
			wp.ops = append(wp.ops, wireOp{kind: wMeta, file: op.File,
				metaItems: op.Items,
				extents:   hdf5.MetaReadExtents(cfg.CollMetadataOps, sp.Nprocs, ppn, op.Items, nil)})
			wp.phases++
		case hdf5.OpMetaTouch:
			g := slices.Index(groups, touchGroup{op.File, op.Items})
			if g < 0 {
				g = len(groups)
				groups = append(groups, touchGroup{op.File, op.Items})
			}
			wp.ops = append(wp.ops, wireOp{kind: wMetaTouch, file: op.File, metaItems: op.Items,
				slot: int32(touchSlots * g)})
		case hdf5.OpMetaFlush:
			requests := hdf5.MetaFlushRequests(cfg.CollMetadataWrite, cfg.MetaBlockSize, op.Bytes, op.Items)
			wp.ops = append(wp.ops, wireOp{kind: wMeta, file: op.File, isWrite: true,
				metaItems: op.Items,
				extents:   []ioreq.Extent{{Offset: op.Offset, Size: op.Bytes, Rank: 0, Count: requests}}})
			wp.phases++
		case hdf5.OpData:
			collective := h.CollectiveWrite
			if !op.IsWrite {
				collective = h.CollectiveRead
			}
			if collective {
				coll := mpiio.PlanCollective(op.Extents, h, sp.Nprocs, ppn)
				wp.ops = append(wp.ops, wireOp{kind: wColl, file: op.File, isWrite: op.IsWrite, coll: coll})
				wp.phases += len(coll.Rounds)
			} else {
				wp.ops = append(wp.ops, wireOp{kind: wIndep, file: op.File, isWrite: op.IsWrite,
					extents: op.Extents})
				wp.phases++
			}
		case hdf5.OpBarrier:
			wp.ops = append(wp.ops, wireOp{kind: wBarrier, n: op.N})
		case hdf5.OpCompute:
			wp.ops = append(wp.ops, wireOp{kind: wCompute, flops: op.Flops})
		case hdf5.OpAccount:
			wp.ops = append(wp.ops, wireOp{kind: wAccount, isWrite: op.IsWrite,
				bytes: op.Bytes, ops: op.Ops})
		}
	}
	wp.touches = len(groups)
	return wp
}

// Runtime executes wire plans against live stacks, keeping reusable scratch
// (MPI-IO handles, metadata extent buffer) across executions. One Runtime
// serves one goroutine.
type Runtime struct {
	// View, when non-nil, is credited with each execution's stage-3 table
	// traffic, so a session can report its own hits against tables it
	// shares with others. The owning cache is credited either way.
	View *CacheView

	mpfs    []*mpiio.File
	fileBuf []mpiio.File // backing storage for mpfs, reopened in place per exec
	metaBuf []ioreq.Extent
}

// Exec replays the wire plan against the stack, charging clock time and
// darshan counters through the same layer code paths — in the same order,
// consuming the same RNG stream — as a live run of the recorded workload
// under the stack's configuration.
func (rt *Runtime) Exec(wp *WirePlan, st *workload.Stack) error {
	return rt.exec(wp, st, nil)
}

// ExecWhile is Exec with a caller-supplied continuation test
// (SHAMan-style pruning): keep is consulted before every op (and once
// after the last), and the replay aborts with ErrBudgetExceeded the first
// time it returns false. The criterion must be monotone in the replay's
// progress for the abort to prove anything about the full run — a time
// budget qualifies because every layer only ever advances the clock
// (Advance panics on negative durations), and so does a bandwidth upper
// bound computed from the stack's partial darshan counters, which only
// falls as layer times accumulate. keep must be a pure function of the
// stack's state, or determinism guarantees built on pruning break. The
// stack is left mid-run on abort (clock at the point of abort, partial
// darshan counters); reset or re-pool it before reuse. A nil keep never
// aborts and makes ExecWhile identical to Exec, op for op.
func (rt *Runtime) ExecWhile(wp *WirePlan, st *workload.Stack, keep func() bool) error {
	if keep == nil {
		return rt.exec(wp, st, nil)
	}
	return rt.exec(wp, st, func() bool { return !keep() })
}

// exec replays the wire plan, aborting with ErrBudgetExceeded whenever
// the abort predicate (nil = never) reports true, and books how its storage
// phases used the plan's phase tables — and, when it published some, what
// they cost the owning cache. An aborted replay has published the tables of
// the prefix it ran.
func (rt *Runtime) exec(wp *WirePlan, st *workload.Stack, abort func() bool) error {
	var uses [lustre.TableUses]int64
	err := rt.run(wp, st, abort, &uses)
	wp.service.add(&uses)
	if uses[lustre.TableBuilt] != 0 && wp.entry != nil {
		wp.entry.chargeTables(wp, st.Layout())
	}
	if rt.View != nil {
		rt.View.service.add(&uses)
	}
	return err
}

func (rt *Runtime) run(wp *WirePlan, st *workload.Stack, abort func() bool, uses *[lustre.TableUses]int64) error {
	sim := st.Sim
	lib := st.Lib
	if lib.Nprocs() != wp.Nprocs {
		return fmt.Errorf("replay: wire plan for %d procs, stack has %d", wp.Nprocs, lib.Nprocs())
	}
	mdc := lib.Config().MDC
	hitRate := mdc.HitRate()
	if cap(rt.mpfs) < len(wp.Files) {
		rt.mpfs = make([]*mpiio.File, len(wp.Files))
		rt.fileBuf = make([]mpiio.File, len(wp.Files))
	}
	mpfs := rt.mpfs[:len(wp.Files)]
	clear(mpfs)
	var slots, touch []lustre.TableSlot // of the phases in op order, of the touch groups
	if wp.phases+wp.touches > 0 {
		slots = wp.slotsFor(st.Layout())
		slots, touch = slots[:wp.phases], slots[wp.phases:]
	}

	var acc float64 // current transfer's data-phase elapsed time
	for i := range wp.ops {
		if abort != nil && abort() {
			return ErrBudgetExceeded
		}
		op := &wp.ops[i]
		switch op.kind {
		case wOpen:
			name := wp.Files[op.file]
			mpf := &rt.fileBuf[op.file]
			if err := mpf.Reopen(sim, lib.Backend(name), name, wp.Nprocs, lib.Hints()); err != nil {
				return err
			}
			mpfs[op.file] = mpf
		case wIndep:
			elapsed, use := mpfs[op.file].IndependentVia(&slots[0], op.extents, op.isWrite)
			slots = slots[1:]
			uses[use]++
			acc += elapsed
		case wMeta:
			elapsed, use := mpfs[op.file].IndependentVia(&slots[0], op.extents, op.isWrite)
			slots = slots[1:]
			uses[use]++
			sim.Report.At(darshan.HDF5).AddMeta(op.metaItems, elapsed)
		case wColl:
			n := len(op.coll.Rounds)
			acc += mpfs[op.file].ExecCollective(op.coll, op.isWrite, slots[:n:n], uses)
			slots = slots[n:]
		case wMetaTouch:
			misses := hdf5.MetaMisses(op.metaItems, hitRate, sim.Rand().Float64())
			if misses > 0 {
				extents := hdf5.MetaReadExtents(wp.CollMetaOps, wp.Nprocs, wp.PPN, misses, rt.metaBuf[:0])
				rt.metaBuf = extents[:0]
				slot := &touch[int(op.slot)+touchSlot(mdc, op.metaItems, misses)]
				elapsed, use := mpfs[op.file].IndependentVia(slot, extents, false)
				uses[use]++
				sim.Report.At(darshan.HDF5).AddMeta(misses, elapsed)
			}
		case wBarrier:
			sim.Barrier(op.n)
		case wCompute:
			sim.Compute(op.flops)
		case wAccount:
			lc := sim.Report.At(darshan.HDF5)
			if op.isWrite {
				lc.WriteOps += op.ops
				lc.BytesWritten += op.bytes
				lc.WriteTime += acc
			} else {
				lc.ReadOps += op.ops
				lc.BytesRead += op.bytes
				lc.ReadTime += acc
			}
			acc = 0
		}
	}
	if abort != nil && abort() {
		return ErrBudgetExceeded
	}
	return nil
}

// ErrBudgetExceeded is returned by ExecWhile when the continuation test
// fails before the plan completes.
var ErrBudgetExceeded = errors.New("replay: budget exceeded")
