// Package replay implements trace-based I/O kernel generation — the
// alternative approach the paper contrasts with in §V-B (Skel and Behzad
// et al. generate replayable kernels from trace files or ADIOS configs
// rather than from source). A Recorder is the simulated HDF5 library's
// tracer and captures every phase of a run — the I/O calls and, through
// OnCompute and OnBarrier, the compute and synchronization the application
// puts between them (Library.Compute, Library.Barrier: the one way a Go
// model, an interpreted kernel or a replay does either); the resulting
// Trace replays as a workload against any stack configuration.
//
// The package exists both as a usable facility and as the comparison
// baseline for the paper's argument: a trace is pinned to the application
// configuration it was recorded under (a new app configuration needs a new
// run to re-trace), while TunIO's source-derived kernels adapt with the
// source.
//
// It is also the evaluation engine: every genome of every job is scored by
// staged replay of one recorded trace (stage.go). The package reads a trace
// in one place — walk, below — and knows nothing of the HDF5 file format:
// the same loop drives a live hdf5.Library (Player, the reference run) and
// a planning one (BuildStackPlan, stage 1), so what a call dirties, where
// it lands and whether it is refused is decided once, in internal/hdf5.
package replay

import (
	"encoding/json"
	"fmt"

	"tunio/internal/hdf5"
	"tunio/internal/workload"
)

// EventKind classifies trace events.
type EventKind string

// Trace event kinds.
const (
	EvCreateFile    EventKind = "create_file"
	EvOpenFile      EventKind = "open_file"
	EvCloseFile     EventKind = "close_file"
	EvCreateDataset EventKind = "create_dataset"
	EvOpenDataset   EventKind = "open_dataset"
	EvCreateGroup   EventKind = "create_group"
	EvAttribute     EventKind = "attribute"
	EvWrite         EventKind = "write"
	EvRead          EventKind = "read"
	EvCompute       EventKind = "compute"
	EvBarrier       EventKind = "barrier"
)

// Slab mirrors one rank's hyperslab in a phase.
type Slab struct {
	Rank  int     `json:"rank"`
	Start []int64 `json:"start"`
	Count []int64 `json:"count"`
}

// Event is one recorded operation. Dataset doubles as the group or
// attribute name for EvCreateGroup/EvAttribute events.
type Event struct {
	Kind    EventKind `json:"kind"`
	File    string    `json:"file,omitempty"`
	Dataset string    `json:"dataset,omitempty"`
	Dims    []int64   `json:"dims,omitempty"`
	Elem    int64     `json:"elem,omitempty"`
	Chunk   []int64   `json:"chunk,omitempty"`
	Slabs   []Slab    `json:"slabs,omitempty"`
	Flops   float64   `json:"flops,omitempty"`
	N       int       `json:"n,omitempty"`     // barrier depth
	Bytes   int64     `json:"bytes,omitempty"` // attribute footprint
}

// Trace is a recorded I/O kernel.
type Trace struct {
	Nprocs int     `json:"nprocs"`
	Events []Event `json:"events"`
}

// Marshal serializes the trace (the artifact a Skel-style tool would
// exchange).
func (t *Trace) Marshal() ([]byte, error) { return json.Marshal(t) }

// Unmarshal restores a serialized trace.
func Unmarshal(data []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, err
	}
	if t.Nprocs <= 0 {
		return nil, fmt.Errorf("replay: trace has no process count")
	}
	return &t, nil
}

// Recorder captures a run's phases as the hdf5 library's tracer.
type Recorder struct {
	trace *Trace
}

// NewRecorder returns a recorder for a communicator of nprocs ranks.
func NewRecorder(nprocs int) *Recorder {
	return &Recorder{trace: &Trace{Nprocs: nprocs}}
}

// Trace returns the recorded trace.
func (r *Recorder) Trace() *Trace { return r.trace }

// Attach installs the recorder on the stack's library and returns a
// detach function.
func (r *Recorder) Attach(lib *hdf5.Library) func() {
	lib.SetTracer(r)
	return func() { lib.SetTracer(nil) }
}

// The hdf5.Tracer interface implementation.

// OnCreateFile implements hdf5.Tracer.
func (r *Recorder) OnCreateFile(name string) {
	r.trace.Events = append(r.trace.Events, Event{Kind: EvCreateFile, File: name})
}

// OnOpenFile implements hdf5.Tracer.
func (r *Recorder) OnOpenFile(name string) {
	r.trace.Events = append(r.trace.Events, Event{Kind: EvOpenFile, File: name})
}

// OnCloseFile implements hdf5.Tracer.
func (r *Recorder) OnCloseFile(name string) {
	r.trace.Events = append(r.trace.Events, Event{Kind: EvCloseFile, File: name})
}

// OnOpenDataset implements hdf5.Tracer.
func (r *Recorder) OnOpenDataset(file, name string) {
	r.trace.Events = append(r.trace.Events, Event{Kind: EvOpenDataset, File: file, Dataset: name})
}

// OnCreateGroup implements hdf5.Tracer.
func (r *Recorder) OnCreateGroup(file, name string) {
	r.trace.Events = append(r.trace.Events, Event{Kind: EvCreateGroup, File: file, Dataset: name})
}

// OnAttribute implements hdf5.Tracer.
func (r *Recorder) OnAttribute(file, name string, bytes int64) {
	r.trace.Events = append(r.trace.Events, Event{Kind: EvAttribute, File: file, Dataset: name, Bytes: bytes})
}

// OnBarrier implements hdf5.Tracer: an application-level barrier
// (MPI_Init/Finalize/MPI_Barrier in interpreted kernels).
func (r *Recorder) OnBarrier(n int) {
	r.trace.Events = append(r.trace.Events, Event{Kind: EvBarrier, N: n})
}

// OnCreateDataset implements hdf5.Tracer.
func (r *Recorder) OnCreateDataset(file, name string, space hdf5.Space, chunk []int64) {
	r.trace.Events = append(r.trace.Events, Event{
		Kind: EvCreateDataset, File: file, Dataset: name,
		Dims: append([]int64(nil), space.Dims...), Elem: space.Elem,
		Chunk: append([]int64(nil), chunk...),
	})
}

// OnTransfer implements hdf5.Tracer.
func (r *Recorder) OnTransfer(file, dataset string, slabs []hdf5.Slab, isWrite bool) {
	kind := EvRead
	if isWrite {
		kind = EvWrite
	}
	ev := Event{Kind: kind, File: file, Dataset: dataset}
	for _, sl := range slabs {
		ev.Slabs = append(ev.Slabs, Slab{
			Rank:  sl.Rank,
			Start: append([]int64(nil), sl.Start...),
			Count: append([]int64(nil), sl.Count...),
		})
	}
	r.trace.Events = append(r.trace.Events, ev)
}

// OnCompute implements hdf5.Tracer.
func (r *Recorder) OnCompute(flops float64) {
	r.trace.Events = append(r.trace.Events, Event{Kind: EvCompute, Flops: flops})
}

// Record executes a workload once on the stack and returns its trace,
// compute and barrier phases included.
func Record(w workload.Workload, st *workload.Stack) (*Trace, error) {
	return RecordFunc(st, w.Run)
}

// RecordFunc records whatever run drives on the stack's library — the
// general form of Record for runners that are not workload.Workload values
// (e.g. the C interpreter executing a discovered kernel). The recorder reads
// st.Lib alone, so the stack may be a bare planning library
// (&workload.Stack{Lib: hdf5.NewPlanner(…)}), which is how
// tuner.ResolveKernel records every kernel: the trace comes out the same as
// on a live stack, whatever its machine, seed or configuration.
func RecordFunc(st *workload.Stack, run func(st *workload.Stack) error) (*Trace, error) {
	rec := NewRecorder(st.Lib.Nprocs())
	defer rec.Attach(st.Lib)()
	if err := run(st); err != nil {
		return nil, err
	}
	return rec.Trace(), nil
}

// Player replays a trace as a workload.
type Player struct {
	T *Trace
	// SkipCompute replays only the I/O (the trace-kernel equivalent of
	// compute stripping).
	SkipCompute bool
}

var _ workload.Workload = (*Player)(nil)

// Name implements workload.Workload.
func (p *Player) Name() string { return "trace-replay" }

// Run implements workload.Workload: the trace's phases execute in order
// against the stack.
func (p *Player) Run(st *workload.Stack) error {
	if p.T == nil {
		return fmt.Errorf("replay: nil trace")
	}
	if st.Lib.Nprocs() != p.T.Nprocs {
		return fmt.Errorf("replay: trace recorded at %d procs, stack has %d (re-trace required)",
			p.T.Nprocs, st.Lib.Nprocs())
	}
	return walk(p.T, st.Lib, p.SkipCompute)
}

// walk drives the library through the trace's events, in order. It is the
// one reader of a trace: over a live library it is a run of the recorded
// workload, over a planning one (hdf5.NewPlanner) it is stage 1 of the
// staged engine, and which of the two it has it never asks — what a call
// costs, books or refuses is the library's business either way.
func walk(t *Trace, lib *hdf5.Library, skipCompute bool) error {
	files := map[string]*hdf5.File{} // the latest handle under each name
	var slabBuf []hdf5.Slab          // reused across transfer events

	for i, ev := range t.Events {
		f := files[ev.File]
		switch ev.Kind {
		case EvCloseFile, EvCreateDataset, EvOpenDataset, EvCreateGroup, EvAttribute:
			if f == nil {
				return fmt.Errorf("replay: event %d: %s on unopened %s", i, ev.Kind, ev.File)
			}
		}
		var err error
		switch ev.Kind {
		case EvCreateFile:
			files[ev.File], err = lib.CreateFile(ev.File)
		case EvOpenFile:
			files[ev.File], err = lib.OpenFile(ev.File)
		case EvCloseFile:
			err = f.Close()
		case EvCreateDataset:
			var space hdf5.Space
			if space, err = hdf5.NewSpace(ev.Dims, ev.Elem); err != nil {
				break
			}
			var chunk []int64
			if len(ev.Chunk) > 0 {
				chunk = ev.Chunk
			}
			_, err = f.CreateDataset(ev.Dataset, space, chunk)
		case EvOpenDataset:
			_, err = f.OpenDataset(ev.Dataset)
		case EvCreateGroup:
			err = f.CreateGroup(ev.Dataset)
		case EvAttribute:
			err = f.WriteAttribute(ev.Dataset, ev.Bytes)
		case EvWrite, EvRead:
			// A trace names datasets, not handles: the transfer goes to the
			// dataset the file holds under the name, through the handle it
			// was last created or opened on.
			var ds *hdf5.Dataset
			if f != nil {
				ds = f.Dataset(ev.Dataset)
			}
			if ds == nil {
				return fmt.Errorf("replay: event %d: transfer on unknown dataset %s", i, ev.Dataset)
			}
			slabs := slabBuf[:0]
			for _, sl := range ev.Slabs {
				slabs = append(slabs, hdf5.Slab{Rank: sl.Rank, Start: sl.Start, Count: sl.Count})
			}
			slabBuf = slabs[:0]
			if ev.Kind == EvWrite {
				_, err = ds.Write(slabs)
			} else {
				_, err = ds.Read(slabs)
			}
		case EvCompute:
			if !skipCompute {
				lib.Compute(ev.Flops)
			}
		case EvBarrier:
			lib.Barrier(ev.N)
		default:
			return fmt.Errorf("replay: event %d: unknown kind %q", i, ev.Kind)
		}
		if err != nil {
			return fmt.Errorf("replay: event %d: %w", i, err)
		}
	}
	return nil
}
