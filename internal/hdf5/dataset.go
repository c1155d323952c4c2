package hdf5

import (
	"fmt"

	"tunio/internal/darshan"
)

// maxExtentsPerSlab bounds how many extents one slab materializes; beyond
// it, segments are grouped into representative extents carrying sub-request
// counts. This keeps evaluation cost bounded without losing request-count
// fidelity.
const maxExtentsPerSlab = 64

// objectHeaderBytes is the metadata created per dataset.
const objectHeaderBytes = 1024

// Dataset is an HDF5 dataset, contiguous or chunked.
type Dataset struct {
	f     *File
	name  string
	space Space

	// contiguous layout
	dataOffset int64

	// chunked layout: the planner owns the chunk grid, per-chunk
	// allocation map, and write history (shared with internal/replay).
	cp *ChunkPlanner
}

// CreateDataset creates a dataset. chunkDims nil selects contiguous layout
// (allocated eagerly, like HDF5 with early allocation in parallel mode);
// otherwise the dataset is chunked and chunks allocate lazily on first
// write. Creation is collective.
func (f *File) CreateDataset(name string, space Space, chunkDims []int64) (*Dataset, error) {
	if f.closed {
		return nil, fmt.Errorf("hdf5: create dataset on closed file %s", f.name)
	}
	if name == "" {
		return nil, fmt.Errorf("hdf5: empty dataset name")
	}
	if _, dup := f.datasets[name]; dup {
		return nil, fmt.Errorf("hdf5: dataset %s already exists in %s", name, f.name)
	}
	d := &Dataset{f: f, name: name, space: space}
	if chunkDims != nil {
		cp, err := NewChunkPlanner(name, space, chunkDims)
		if err != nil {
			return nil, err
		}
		d.cp = cp
	} else {
		d.dataOffset = f.allocate(space.TotalBytes())
	}
	f.addMetadata(objectHeaderBytes)
	f.datasets[name] = d
	if f.lib.tracer != nil {
		f.lib.tracer.OnCreateDataset(f.name, name, space, chunkDims)
	}
	return d, nil
}

// OpenDataset opens an existing dataset, charging metadata reads.
func (f *File) OpenDataset(name string) (*Dataset, error) {
	if f.closed {
		return nil, fmt.Errorf("hdf5: open dataset on closed file %s", f.name)
	}
	d, ok := f.datasets[name]
	if !ok {
		return nil, fmt.Errorf("hdf5: dataset %s not found in %s", name, f.name)
	}
	f.metaRead(OpenDatasetMetaItems)
	d.f = f // rebind to the current open handle
	if f.lib.tracer != nil {
		f.lib.tracer.OnOpenDataset(f.name, name)
	}
	return d, nil
}

// Space returns the dataset's dataspace.
func (d *Dataset) Space() Space { return d.space }

// Chunked reports whether the dataset uses chunked layout.
func (d *Dataset) Chunked() bool { return d.cp != nil }

// ChunkBytes returns the chunk size in bytes (0 for contiguous layout).
func (d *Dataset) ChunkBytes() int64 {
	if d.cp == nil {
		return 0
	}
	return d.cp.ChunkBytes()
}

// Write services one collective write phase: every participating rank's
// hyperslab, together. Returns elapsed simulated seconds.
func (d *Dataset) Write(slabs []Slab) (float64, error) {
	return d.transfer(slabs, true)
}

// Read services one collective read phase.
func (d *Dataset) Read(slabs []Slab) (float64, error) {
	return d.transfer(slabs, false)
}

func (d *Dataset) transfer(slabs []Slab, isWrite bool) (float64, error) {
	if len(slabs) == 0 {
		return 0, nil
	}
	var appBytes int64
	for _, sl := range slabs {
		if err := d.space.ValidateSlab(sl); err != nil {
			return 0, err
		}
		appBytes += d.space.SlabBytes(sl)
	}

	if tr := d.f.lib.tracer; tr != nil {
		tr.OnTransfer(d.f.name, d.name, slabs, isWrite)
	}

	var elapsed float64
	var err error
	if d.Chunked() {
		elapsed, err = d.transferChunked(slabs, isWrite)
	} else {
		elapsed, err = d.transferContiguous(slabs, isWrite)
	}
	if err != nil {
		return 0, err
	}

	// Application-layer accounting: one op per H5Dwrite/H5Dread call.
	lc := d.f.lib.sim.Report.At(darshan.HDF5)
	if isWrite {
		lc.WriteOps += int64(len(slabs))
		lc.BytesWritten += appBytes
		lc.WriteTime += elapsed
	} else {
		lc.ReadOps += int64(len(slabs))
		lc.BytesRead += appBytes
		lc.ReadTime += elapsed
	}
	return elapsed, nil
}

// transferContiguous maps slabs to file extents with sieve-buffer
// coalescing of small strided segments. Extents build into a file-owned
// reusable buffer (they are consumed synchronously by the phase).
func (d *Dataset) transferContiguous(slabs []Slab, isWrite bool) (float64, error) {
	d.f.metaTouch(int64(len(slabs))) // object header revisits
	extents := d.f.extBuf[:0]
	sieve := d.f.lib.cfg.SieveBufSize
	for _, sl := range slabs {
		extents = ContiguousSlabExtents(d.space, sl, d.dataOffset, sieve, extents)
	}
	d.f.extBuf = extents[:0]
	if isWrite {
		return d.f.writePhase(extents)
	}
	return d.f.readPhase(extents)
}

// transferChunked services a phase against a chunked dataset: it resolves
// touched chunks via the shared ChunkPlanner, performs read-modify-write
// for partially covered, uncached, previously written chunks, and writes
// covered bytes.
func (d *Dataset) transferChunked(slabs []Slab, isWrite bool) (float64, error) {
	ph := d.cp.Plan(slabs, isWrite, d.f.cache, d.f.allocate)
	for i := int64(0); i < ph.NewChunks; i++ {
		d.f.addMetadata(metaItemSize) // chunk index entry
	}
	d.f.metaTouch(ph.MetaTouches)

	var elapsed float64
	if len(ph.Read) > 0 {
		e, err := d.f.readPhase(ph.Read)
		if err != nil {
			return 0, err
		}
		elapsed += e
	}
	if len(ph.Data) > 0 {
		var e float64
		var err error
		if isWrite {
			e, err = d.f.writePhase(ph.Data)
		} else {
			e, err = d.f.readPhase(ph.Data)
		}
		if err != nil {
			return 0, err
		}
		elapsed += e
	}
	return elapsed, nil
}

// ChunkCache is an LRU cache of chunks, keyed by (dataset, chunk index).
// It models the aggregate effect of the per-process raw data chunk cache.
type ChunkCache struct {
	capacity int64
	used     int64
	entries  map[string]int64 // key -> bytes
	lru      []string
}

// NewChunkCache returns an empty cache of the given capacity (also used by
// the replay planner, which keeps its own cache per planned file handle).
func NewChunkCache(capacity int64) *ChunkCache {
	return &ChunkCache{capacity: capacity, entries: make(map[string]int64)}
}

func newChunkCache(capacity int64) *ChunkCache { return NewChunkCache(capacity) }

func cacheKey(dataset string, linear int64) string {
	return fmt.Sprintf("%s#%d", dataset, linear)
}

func (c *ChunkCache) contains(dataset string, linear int64) bool {
	_, ok := c.entries[cacheKey(dataset, linear)]
	return ok
}

func (c *ChunkCache) insert(dataset string, linear, bytes int64) {
	if bytes > c.capacity {
		return // chunk larger than the cache never caches (like HDF5)
	}
	key := cacheKey(dataset, linear)
	if _, ok := c.entries[key]; ok {
		c.touch(key)
		return
	}
	for c.used+bytes > c.capacity && len(c.lru) > 0 {
		victim := c.lru[0]
		c.lru = c.lru[1:]
		c.used -= c.entries[victim]
		delete(c.entries, victim)
	}
	c.entries[key] = bytes
	c.used += bytes
	c.lru = append(c.lru, key)
}

func (c *ChunkCache) touch(key string) {
	for i, k := range c.lru {
		if k == key {
			c.lru = append(c.lru[:i], c.lru[i+1:]...)
			c.lru = append(c.lru, key)
			return
		}
	}
}

// WriteAttribute attaches an attribute to the dataset (object-header
// metadata, like File.WriteAttribute).
func (d *Dataset) WriteAttribute(name string, size int64) error {
	if d.f.closed {
		return fmt.Errorf("hdf5: attribute on closed file %s", d.f.name)
	}
	if name == "" {
		return fmt.Errorf("hdf5: empty attribute name")
	}
	if size < attributeHeaderBytes {
		size = attributeHeaderBytes
	}
	d.f.addMetadata(size)
	if tr := d.f.lib.tracer; tr != nil {
		tr.OnAttribute(d.f.name, d.name+"/"+name, size)
	}
	return nil
}
