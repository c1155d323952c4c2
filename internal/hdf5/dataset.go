package hdf5

import (
	"fmt"

	"tunio/internal/ioreq"
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
	// allocation map, and write history.
	cp *chunkPlanner
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
		cp, err := newChunkPlanner(name, space, chunkDims)
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
	if err := f.lib.do(f, Op{Kind: OpMetaRead, Items: openDatasetMetaItems}); err != nil {
		return nil, err
	}
	d.f = f // rebind to the current open handle
	if f.lib.tracer != nil {
		f.lib.tracer.OnOpenDataset(f.name, name)
	}
	return d, nil
}

// Dataset returns the file's dataset of that name — bound to the handle it
// was last created or opened on — or nil when the file has none.
func (f *File) Dataset(name string) *Dataset { return f.datasets[name] }

// Space returns the dataset's dataspace.
func (d *Dataset) Space() Space { return d.space }

// Write services one collective write phase: every participating rank's
// hyperslab, together. Returns elapsed simulated seconds.
func (d *Dataset) Write(slabs []Slab) (float64, error) {
	return d.transfer(slabs, true)
}

// Read services one collective read phase.
func (d *Dataset) Read(slabs []Slab) (float64, error) {
	return d.transfer(slabs, false)
}

// transfer resolves one phase to its ops: the metadata touches, the data
// extents — sieve-coalesced segments of a contiguous dataset; for a chunked
// one the touched chunks via the chunk planner, with a read-modify-write
// prefetch of partially covered, uncached, previously written chunks — and
// the application-layer accounting, one op per H5Dwrite/H5Dread call.
// Extents build into library-owned reusable buffers (they are consumed
// synchronously by do).
func (d *Dataset) transfer(slabs []Slab, isWrite bool) (float64, error) {
	if len(slabs) == 0 {
		return 0, nil
	}
	f := d.f
	lib := f.lib
	if f.closed {
		if isWrite {
			return 0, fmt.Errorf("hdf5: write to closed file %s", f.name)
		}
		return 0, fmt.Errorf("hdf5: read from closed file %s", f.name)
	}
	var appBytes int64
	for _, sl := range slabs {
		if err := d.space.ValidateSlab(sl); err != nil {
			return 0, err
		}
		appBytes += d.space.SlabBytes(sl)
	}
	if lib.tracer != nil {
		lib.tracer.OnTransfer(f.name, d.name, slabs, isWrite)
	}

	lib.acc = 0
	touches := int64(len(slabs)) // contiguous: object header revisits
	var rmw, data []ioreq.Extent
	if d.cp == nil {
		data = lib.extBuf[:0]
		for _, sl := range slabs {
			data = lib.contiguousSlabExtents(d.space, sl, d.dataOffset, data)
		}
		lib.extBuf = data[:0]
	} else {
		if f.cache == nil {
			f.cache = newChunkCache(lib.chunkCacheBytes())
		}
		ph := d.cp.plan(slabs, isWrite, f.cache, f.allocate)
		for i := int64(0); i < ph.NewChunks; i++ {
			f.addMetadata(metaItemSize) // chunk index entry
		}
		touches, rmw, data = ph.MetaTouches, ph.Read, ph.Data
	}
	if touches > 0 {
		if err := lib.do(f, Op{Kind: OpMetaTouch, Items: touches}); err != nil {
			return 0, err
		}
	}
	if len(rmw) > 0 {
		// read-modify-write prefetch: a read phase even on writes
		if err := lib.do(f, Op{Kind: OpData, Extents: rmw}); err != nil {
			return 0, err
		}
	}
	if len(data) > 0 {
		if err := lib.do(f, Op{Kind: OpData, IsWrite: isWrite, Extents: data}); err != nil {
			return 0, err
		}
	}
	if err := lib.do(nil, Op{Kind: OpAccount, IsWrite: isWrite, Bytes: appBytes, Ops: int64(len(slabs))}); err != nil {
		return 0, err
	}
	return lib.acc, nil // zero under a planning library
}

// chunkCache is an LRU cache of chunks, keyed by (dataset, chunk index).
// It models the aggregate effect of the per-process raw data chunk cache.
type chunkCache struct {
	capacity int64
	used     int64
	entries  map[string]int64 // key -> bytes
	lru      []string
}

func newChunkCache(capacity int64) *chunkCache {
	return &chunkCache{capacity: capacity, entries: make(map[string]int64)}
}

func cacheKey(dataset string, linear int64) string {
	return fmt.Sprintf("%s#%d", dataset, linear)
}

func (c *chunkCache) contains(dataset string, linear int64) bool {
	_, ok := c.entries[cacheKey(dataset, linear)]
	return ok
}

func (c *chunkCache) insert(dataset string, linear, bytes int64) {
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

func (c *chunkCache) touch(key string) {
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
