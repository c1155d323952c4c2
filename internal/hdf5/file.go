package hdf5

import (
	"fmt"
	"math"

	"tunio/internal/cluster"
	"tunio/internal/ioreq"
	"tunio/internal/mpiio"
)

// metaItemSize is the modeled size of one metadata item (object header
// chunk, B-tree node fragment, heap entry).
const metaItemSize = 512

// superblockBytes is the metadata written when a file is created.
const superblockBytes = 2048

// Tracer observes library operations; trace-based kernel generation
// (internal/replay) attaches one to record a run's phases. It is told of a
// call after the library has accepted its arguments and before anything is
// charged. OnCompute and OnBarrier report what the application does between
// its I/O calls — Library.Compute and Library.Barrier — so that a recorded
// trace carries the whole run; barriers the library itself takes inside a
// collective operation are not reported.
type Tracer interface {
	OnCreateFile(name string)
	OnOpenFile(name string)
	OnCloseFile(name string)
	OnCreateDataset(file, name string, space Space, chunk []int64)
	OnOpenDataset(file, name string)
	OnCreateGroup(file, name string)
	// OnAttribute reports attribute metadata attached to an object in the
	// file; bytes is the rounded-up metadata footprint.
	OnAttribute(file, name string, bytes int64)
	OnTransfer(file, dataset string, slabs []Slab, isWrite bool)
	OnCompute(flops float64)
	OnBarrier(n int)
}

// Library is the HDF5-like library instance bound to one simulation — or,
// built by NewPlanner, to none.
type Library struct {
	sim     *cluster.Sim // nil in a planning library
	backend func(path string) ioreq.Backend
	hints   mpiio.Hints
	cfg     Config
	nprocs  int
	files   map[string]*File
	names   []string // file names by File.idx, in first-creation order
	tracer  Tracer

	acc   float64   // live: elapsed time of the current transfer's data phases
	ops   []Op      // planning: the ops so far
	reads PlanReads // plan-stage fields consulted so far

	// reusable extent buffers for transfer and metadata phases
	extBuf  []ioreq.Extent
	metaBuf []ioreq.Extent
}

// SetTracer installs (or with nil removes) an operation tracer.
func (l *Library) SetTracer(t Tracer) { l.tracer = t }

// NewLibrary builds a library. backend resolves a path to its storage
// target (so /dev/shm paths route to the memory backend); hints configure
// the MPI-IO layer; nprocs is the size of the simulated communicator.
func NewLibrary(sim *cluster.Sim, backend func(path string) ioreq.Backend, hints mpiio.Hints, cfg Config, nprocs int) (*Library, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sim == nil {
		return nil, fmt.Errorf("hdf5: nil simulation")
	}
	if backend == nil {
		return nil, fmt.Errorf("hdf5: nil backend resolver")
	}
	if nprocs <= 0 {
		return nil, fmt.Errorf("hdf5: nprocs must be positive, got %d", nprocs)
	}
	return &Library{
		sim:     sim,
		backend: backend,
		hints:   hints,
		cfg:     cfg,
		nprocs:  nprocs,
		files:   make(map[string]*File),
	}, nil
}

// Rebind reconfigures the library in place for a fresh run: new hints
// and config, an emptied file namespace, no tracer. Equivalent to
// NewLibrary over the same simulation, backend resolver, and nprocs, but
// reuses the library allocation and its map — the steady-state path of a
// pooled evaluation stack.
func (l *Library) Rebind(hints mpiio.Hints, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	l.hints = hints
	l.cfg = cfg
	l.tracer = nil
	l.reads = 0
	clear(l.files)
	l.names = l.names[:0]
	return nil
}

// Config returns the library configuration.
func (l *Library) Config() Config { return l.cfg }

// Nprocs returns the communicator size.
func (l *Library) Nprocs() int { return l.nprocs }

// Sim returns the simulation context.
func (l *Library) Sim() *cluster.Sim { return l.sim }

// Compute runs an application compute phase of flops per process. Like the
// simulation it panics on a negative or non-finite count, which only a
// broken caller produces, before the tracer hears of it, so a recorder never
// captures a phase no run can replay or a trace that does not marshal.
func (l *Library) Compute(flops float64) {
	if flops < 0 || math.IsNaN(flops) || math.IsInf(flops, 0) {
		panic(fmt.Sprintf("hdf5: Compute(%v)", flops))
	}
	if l.tracer != nil {
		l.tracer.OnCompute(flops)
	}
	_ = l.do(nil, Op{Kind: OpCompute, Flops: flops}) // cannot fail: no storage behind it
}

// Barrier synchronizes n processes of the application (MPI_Init/Finalize or
// an explicit MPI_Barrier). It panics on a non-positive count before the
// tracer hears of it, so a recorder never captures a barrier no run can
// replay.
func (l *Library) Barrier(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("hdf5: Barrier(%d)", n))
	}
	if l.tracer != nil {
		l.tracer.OnBarrier(n)
	}
	_ = l.do(nil, Op{Kind: OpBarrier, N: n}) // cannot fail: no storage behind it
}

// Backend resolves the storage backend serving a path (exposed for the
// staged replay engine, which opens MPI-IO handles outside the library).
func (l *Library) Backend(path string) ioreq.Backend { return l.backend(path) }

// Hints returns the MPI-IO hints the library opens files with.
func (l *Library) Hints() mpiio.Hints { return l.hints }

// File is an open HDF5 file.
type File struct {
	lib    *Library
	name   string
	idx    int32       // position in the library's file list
	mpf    *mpiio.File // nil under a planning library
	eof    int64       // allocator high-water mark
	closed bool

	datasets map[string]*Dataset

	// metadata model
	metaPendingBytes int64 // dirty metadata awaiting flush
	metaPendingItems int64
	cache            *chunkCache // of this handle; made by its first chunked transfer
	groups           map[string]bool
}

// CreateFile creates (truncates) a file; collective across the communicator.
func (l *Library) CreateFile(name string) (*File, error) {
	if name == "" {
		return nil, fmt.Errorf("hdf5: empty file name")
	}
	f := &File{
		lib:      l,
		name:     name,
		idx:      int32(len(l.names)),
		datasets: make(map[string]*Dataset),
	}
	if prev, ok := l.files[name]; ok {
		f.idx = prev.idx // truncated: the name keeps its place
	} else {
		l.names = append(l.names, name)
	}
	if err := l.do(f, Op{Kind: OpOpen}); err != nil {
		return nil, err
	}
	f.addMetadata(superblockBytes) // superblock + root group header
	l.files[name] = f
	if l.tracer != nil {
		l.tracer.OnCreateFile(name)
	}
	return f, nil
}

// OpenFile opens an existing file created in this simulation.
func (l *Library) OpenFile(name string) (*File, error) {
	prev, ok := l.files[name]
	if !ok {
		return nil, fmt.Errorf("hdf5: open %s: no such file", name)
	}
	f := &File{
		lib:      l,
		name:     name,
		idx:      prev.idx,
		eof:      prev.eof,
		datasets: prev.datasets,
	}
	if err := l.do(f, Op{Kind: OpOpen}); err != nil {
		return nil, err
	}
	if err := l.do(f, Op{Kind: OpMetaRead, Items: openFileMetaItems}); err != nil {
		return nil, err
	}
	l.files[name] = f
	if l.tracer != nil {
		l.tracer.OnOpenFile(name)
	}
	return f, nil
}

// Name returns the file path.
func (f *File) Name() string { return f.name }

// EOF returns the allocator high-water mark (the file's allocated size).
func (f *File) EOF() int64 { return f.eof }

// allocate reserves size bytes, honoring the alignment policy, and returns
// the offset.
func (f *File) allocate(size int64) int64 {
	off := f.lib.align(f.eof, size)
	f.eof = off + size
	return off
}

// allocateMeta reserves metadata space; metadata is never aligned.
func (f *File) allocateMeta(size int64) int64 {
	off := f.eof
	f.eof = off + size
	return off
}

// addMetadata records newly created dirty metadata.
func (f *File) addMetadata(bytes int64) {
	f.metaPendingBytes += bytes
	f.metaPendingItems += metaItemsFor(bytes)
}

// flushMetadata writes pending dirty metadata. With collective metadata
// writes the items are aggregated into MetaBlockSize blocks written in one
// phase; without, each dirty item is its own small write.
func (f *File) flushMetadata() error {
	if f.metaPendingBytes == 0 {
		return nil
	}
	op := Op{Kind: OpMetaFlush, Offset: f.allocateMeta(f.metaPendingBytes),
		Bytes: f.metaPendingBytes, Items: f.metaPendingItems}
	f.metaPendingBytes = 0
	f.metaPendingItems = 0
	return f.lib.do(f, op)
}

// Close flushes metadata and the chunk cache and closes the file.
func (f *File) Close() error {
	if f.closed {
		return fmt.Errorf("hdf5: close %s: already closed", f.name)
	}
	if err := f.flushMetadata(); err != nil {
		return err
	}
	// the library's own barrier: not the application's, so no tracer
	_ = f.lib.do(nil, Op{Kind: OpBarrier, N: f.lib.nprocs})
	f.closed = true
	if f.lib.tracer != nil {
		f.lib.tracer.OnCloseFile(f.name)
	}
	return nil
}

// groupHeaderBytes is the metadata created per group.
const groupHeaderBytes = 512

// attributeHeaderBytes is the minimum metadata footprint of an attribute.
const attributeHeaderBytes = 256

// CreateGroup creates a group (pure metadata: an object header plus a link
// entry in the parent). Collective; charged to the metadata model.
func (f *File) CreateGroup(name string) error {
	if f.closed {
		return fmt.Errorf("hdf5: create group on closed file %s", f.name)
	}
	if name == "" {
		return fmt.Errorf("hdf5: empty group name")
	}
	if f.groups == nil {
		f.groups = make(map[string]bool)
	}
	if f.groups[name] {
		return fmt.Errorf("hdf5: group %s already exists in %s", name, f.name)
	}
	f.groups[name] = true
	f.addMetadata(groupHeaderBytes)
	if f.lib.tracer != nil {
		f.lib.tracer.OnCreateGroup(f.name, name)
	}
	return nil
}

// HasGroup reports whether the group exists.
func (f *File) HasGroup(name string) bool { return f.groups[name] }

// WriteAttribute attaches an attribute of the given payload size to the
// file's root object. Attributes live in object-header metadata; sizes
// below the header minimum are rounded up.
func (f *File) WriteAttribute(name string, size int64) error {
	if f.closed {
		return fmt.Errorf("hdf5: attribute on closed file %s", f.name)
	}
	if name == "" {
		return fmt.Errorf("hdf5: empty attribute name")
	}
	if size < attributeHeaderBytes {
		size = attributeHeaderBytes
	}
	f.addMetadata(size)
	if f.lib.tracer != nil {
		f.lib.tracer.OnAttribute(f.name, name, size)
	}
	return nil
}
