// Package ioreq defines the request types shared by the layers of the
// simulated I/O stack: extents (byte ranges attributed to an issuing rank)
// and the Backend interface both storage targets (the Lustre simulation and
// the in-memory /dev/shm target used by I/O path switching) implement.
package ioreq

import "fmt"

// Extent is one byte range of a file, issued by a rank.
//
// Count > 1 marks the range as being issued as Count equal-sized sequential
// sub-requests (the shape strided hyperslab I/O produces) rather than one
// large request; storage layers charge per-request overheads accordingly.
// Count <= 1 means a single request.
//
// Span, when larger than Size, records the geometric footprint of a
// strided access: the extent touches Size payload bytes scattered over
// [Offset, Offset+Span). Storage layers spread the payload over the span's
// stripes, and collective buffering treats the span as coverage (the gaps
// are tiled by the other ranks of the interleaved pattern). Span <= Size
// means a dense extent.
type Extent struct {
	Offset int64
	Size   int64
	Rank   int
	Count  int64
	Span   int64
}

// SpanLen returns the geometric footprint length.
func (e Extent) SpanLen() int64 {
	if e.Span > e.Size {
		return e.Span
	}
	return e.Size
}

// Density returns payload bytes per footprint byte (1 for dense extents).
func (e Extent) Density() float64 {
	s := e.SpanLen()
	if s <= 0 {
		return 1
	}
	return float64(e.Size) / float64(s)
}

// Requests returns the number of storage requests the extent represents.
func (e Extent) Requests() int64 {
	if e.Count <= 1 {
		return 1
	}
	return e.Count
}

// SubSize returns the size of each sub-request.
func (e Extent) SubSize() int64 {
	return e.Size / e.Requests()
}

// Validate reports an error for negative or empty extents.
func (e Extent) Validate() error {
	if e.Offset < 0 || e.Size <= 0 {
		return fmt.Errorf("ioreq: invalid extent offset=%d size=%d", e.Offset, e.Size)
	}
	return nil
}

// End returns the exclusive end offset.
func (e Extent) End() int64 { return e.Offset + e.Size }

// TotalBytes sums extent sizes.
func TotalBytes(extents []Extent) int64 {
	var total int64
	for _, e := range extents {
		total += e.Size
	}
	return total
}

// Backend is a storage target for file phases. Implementations charge
// simulated time and update the run's darshan report, returning the elapsed
// simulated seconds of the phase.
type Backend interface {
	// WritePhase services a set of concurrent write extents against the
	// named file.
	WritePhase(file string, extents []Extent) float64
	// ReadPhase services a set of concurrent read extents.
	ReadPhase(file string, extents []Extent) float64
	// MetaOps services n metadata operations issued by nclients clients
	// (nclients > 1 models every rank issuing the op; 1 models collective
	// metadata where a single rank issues it).
	MetaOps(n int, nclients int) float64
	// Name identifies the backend layer for counters ("lustre" or "mem").
	Name() string
}
