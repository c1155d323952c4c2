// Package hdf5 simulates the high-level I/O library layer of the stack: an
// HDF5-like library with files, datasets, dataspaces, chunking, a chunk
// cache, a sieve buffer, alignment, metadata aggregation, and collective
// metadata — the layer whose tuning properties (file-access property list
// settings) make up most of TunIO's 12-parameter search space.
//
// The library sits on the simulated MPI-IO layer, which in turn targets a
// storage backend (Lustre or the /dev/shm memory target). Data payloads are
// not materialized: the simulation tracks extents, request counts, and
// timing, which is everything the tuning objective observes.
package hdf5

import "fmt"

// MDCLevel selects the metadata cache configuration (the paper's mdc_conf
// parameter). Higher levels cache more aggressively, turning repeated
// metadata touches into hits.
type MDCLevel int

// Metadata cache levels.
const (
	MDCMinimal MDCLevel = iota
	MDCDefault
	MDCLarge
	MDCAggressive
)

// HitRate returns the modeled hit rate for repeated metadata touches.
func (l MDCLevel) HitRate() float64 {
	switch l {
	case MDCMinimal:
		return 0.50
	case MDCDefault:
		return 0.80
	case MDCLarge:
		return 0.95
	case MDCAggressive:
		return 0.99
	default:
		return 0.80
	}
}

// String names the level.
func (l MDCLevel) String() string {
	switch l {
	case MDCMinimal:
		return "minimal"
	case MDCDefault:
		return "default"
	case MDCLarge:
		return "large"
	case MDCAggressive:
		return "aggressive"
	default:
		return fmt.Sprintf("mdc(%d)", int(l))
	}
}

// Config is the library tuning configuration (file-access property list).
type Config struct {
	// Alignment aligns file allocations of at least AlignmentThreshold
	// bytes to multiples of this value (H5Pset_alignment). 0 or 1 disables.
	Alignment          int64
	AlignmentThreshold int64

	// SieveBufSize coalesces small strided raw-data accesses on
	// contiguous-layout datasets (H5Pset_sieve_buf_size).
	SieveBufSize int64

	// ChunkCacheBytes is the raw-data chunk cache capacity (H5Pset_cache).
	ChunkCacheBytes int64

	// MetaBlockSize aggregates small metadata allocations into blocks
	// (H5Pset_meta_block_size): larger blocks mean fewer metadata writes.
	MetaBlockSize int64

	// CollMetadataOps issues metadata reads from a single rank followed by
	// a broadcast instead of from every rank (H5Pset_all_coll_metadata_ops).
	CollMetadataOps bool

	// CollMetadataWrite batches metadata writes collectively instead of
	// one small write per dirty item (H5Pset_coll_metadata_write).
	CollMetadataWrite bool

	// MDC selects the metadata cache configuration.
	MDC MDCLevel
}

// DefaultConfig mirrors HDF5's library defaults — the untuned baseline the
// paper's applications start from.
func DefaultConfig() Config {
	return Config{
		Alignment:          1,
		AlignmentThreshold: 64 << 10,
		SieveBufSize:       64 << 10,
		ChunkCacheBytes:    1 << 20,
		MetaBlockSize:      2 << 10,
		CollMetadataOps:    false,
		CollMetadataWrite:  false,
		MDC:                MDCDefault,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Alignment < 0 || c.AlignmentThreshold < 0 {
		return fmt.Errorf("hdf5: negative alignment settings")
	}
	if c.SieveBufSize < 0 || c.ChunkCacheBytes < 0 || c.MetaBlockSize < 0 {
		return fmt.Errorf("hdf5: negative buffer sizes")
	}
	if c.MDC < MDCMinimal || c.MDC > MDCAggressive {
		return fmt.Errorf("hdf5: unknown MDC level %d", c.MDC)
	}
	return nil
}

// PlanReads is a set of the three plan-stage fields of a Config: the ones
// that decide where data lands and which extents a transfer becomes
// (params.PlanStage). A library keeps the set its calls have consulted so
// far (Library.Reads). Whether a call sequence reaches each of the three
// read sites below does not depend on any of the three values — the
// alignment is consulted for an allocation at or over AlignmentThreshold,
// the sieve buffer for a contiguous slab of more than one segment, the chunk
// cache capacity by a file's first chunked transfer — so the set a planning
// library ends with is a property of the trace it walked, and a
// configuration that differs from another only outside it plans the same.
type PlanReads uint8

// The plan-stage fields, as members of a PlanReads.
const (
	ReadsAlignment PlanReads = 1 << iota
	ReadsSieveBuf
	ReadsChunkCache
)

// Reads returns the plan-stage fields the library's calls have consulted
// since it was built or rebound.
func (l *Library) Reads() PlanReads { return l.reads }

// alignment, sieveBufSize and chunkCacheBytes are the library's only
// readers of the three plan-stage fields: reading one is reporting it, so a
// new use of a field cannot leave it out of the footprint (root
// hygiene_test.go keeps the field names out of every other file).
func (l *Library) alignment() int64 {
	l.reads |= ReadsAlignment
	return l.cfg.Alignment
}

func (l *Library) sieveBufSize() int64 {
	l.reads |= ReadsSieveBuf
	return l.cfg.SieveBufSize
}

func (l *Library) chunkCacheBytes() int64 {
	l.reads |= ReadsChunkCache
	return l.cfg.ChunkCacheBytes
}

// align rounds offset up per the alignment policy for an allocation of
// size bytes. The size is tested first: below the threshold the alignment
// is not consulted at all.
func (l *Library) align(offset, size int64) int64 {
	if size < l.cfg.AlignmentThreshold {
		return offset
	}
	alignment := l.alignment()
	if alignment <= 1 {
		return offset
	}
	rem := offset % alignment
	if rem == 0 {
		return offset
	}
	return offset + alignment - rem
}
