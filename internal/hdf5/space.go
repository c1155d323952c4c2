package hdf5

import "fmt"

// Space is an N-dimensional dataspace with a fixed element size, linearized
// row-major (C order) like HDF5.
type Space struct {
	Dims []int64 // extent per dimension, slowest-varying first
	Elem int64   // element size in bytes
}

// NewSpace validates and returns a dataspace.
func NewSpace(dims []int64, elem int64) (Space, error) {
	if len(dims) == 0 {
		return Space{}, fmt.Errorf("hdf5: dataspace needs at least one dimension")
	}
	for i, d := range dims {
		if d <= 0 {
			return Space{}, fmt.Errorf("hdf5: dimension %d is %d, want > 0", i, d)
		}
	}
	if elem <= 0 {
		return Space{}, fmt.Errorf("hdf5: element size %d, want > 0", elem)
	}
	return Space{Dims: append([]int64(nil), dims...), Elem: elem}, nil
}

// Elements returns the total element count.
func (s Space) Elements() int64 {
	n := int64(1)
	for _, d := range s.Dims {
		n *= d
	}
	return n
}

// TotalBytes returns the dataset size in bytes.
func (s Space) TotalBytes() int64 { return s.Elements() * s.Elem }

// strides returns element strides per dimension (row-major), in buf if the
// space has no more dimensions than that holds: Geometry and ForEachSegment
// run once per slab of every plan build, and keep buf on their stacks.
func (s Space) strides(buf *[8]int64) []int64 {
	st := buf[:min(len(s.Dims), len(buf))]
	if len(s.Dims) > len(buf) {
		st = make([]int64, len(s.Dims))
	}
	acc := int64(1)
	for i := len(s.Dims) - 1; i >= 0; i-- {
		st[i] = acc
		acc *= s.Dims[i]
	}
	return st
}

// Slab is a regular hyperslab selection issued by one rank.
type Slab struct {
	Rank  int
	Start []int64
	Count []int64
}

// ValidateSlab checks that the slab fits inside the space.
func (s Space) ValidateSlab(sl Slab) error {
	if len(sl.Start) != len(s.Dims) || len(sl.Count) != len(s.Dims) {
		return fmt.Errorf("hdf5: slab rank %d/%d does not match dataspace rank %d",
			len(sl.Start), len(sl.Count), len(s.Dims))
	}
	for i := range s.Dims {
		if sl.Start[i] < 0 || sl.Count[i] <= 0 || sl.Start[i]+sl.Count[i] > s.Dims[i] {
			return fmt.Errorf("hdf5: slab dim %d [%d, %d) outside extent %d",
				i, sl.Start[i], sl.Start[i]+sl.Count[i], s.Dims[i])
		}
	}
	return nil
}

// SlabBytes returns the slab's selected byte count.
func (s Space) SlabBytes(sl Slab) int64 {
	n := s.Elem
	for _, c := range sl.Count {
		n *= c
	}
	return n
}

// SlabGeometry describes the slab's linearized shape: nSegments contiguous
// runs of segBytes each, starting at firstByte; iteration order is
// monotonically increasing in file offset.
type SlabGeometry struct {
	FirstByte int64
	SegBytes  int64
	NSegments int64
	SpanBytes int64 // lastByteExclusive - FirstByte
}

// Geometry computes the slab's linearized segment structure.
func (s Space) Geometry(sl Slab) SlabGeometry {
	var buf [8]int64
	st := s.strides(&buf)
	// The contiguous tail: trailing dims fully selected.
	tail := len(s.Dims)
	for tail > 0 {
		i := tail - 1
		if sl.Count[i] == s.Dims[i] {
			tail = i
			continue
		}
		break
	}
	// Segment = the run formed by dim tail-1... careful: the innermost
	// partially selected dim contributes count[t]*stride(t) contiguous
	// bytes where t is the last dim not in the tail (or the innermost dim
	// if all are full).
	var segElems, nSegs int64
	if tail == 0 {
		// whole selection is contiguous
		segElems = 1
		for _, c := range sl.Count {
			segElems *= c
		}
		nSegs = 1
	} else {
		t := tail - 1
		segElems = sl.Count[t] * st[t]
		nSegs = 1
		for i := 0; i < t; i++ {
			nSegs *= sl.Count[i]
		}
	}
	first := int64(0)
	last := int64(0)
	for i := range s.Dims {
		first += sl.Start[i] * st[i]
		last += (sl.Start[i] + sl.Count[i] - 1) * st[i]
	}
	return SlabGeometry{
		FirstByte: first * s.Elem,
		SegBytes:  segElems * s.Elem,
		NSegments: nSegs,
		SpanBytes: (last+1)*s.Elem - first*s.Elem,
	}
}

// ForEachSegment invokes fn with the byte offset (within the dataset) and
// size of each contiguous segment of the slab, in increasing offset order.
// fn returning false stops iteration early.
func (s Space) ForEachSegment(sl Slab, fn func(offset, size int64) bool) {
	g := s.Geometry(sl)
	if g.NSegments == 1 {
		fn(g.FirstByte, g.SegBytes)
		return
	}
	var buf [8]int64
	st := s.strides(&buf)
	// outer dims are those before the segment dim
	tail := len(s.Dims)
	for tail > 0 && sl.Count[tail-1] == s.Dims[tail-1] {
		tail--
	}
	outer := tail - 1 // dims [0, outer) are iterated
	idx := make([]int64, outer)
	// Offsets advance incrementally with the odometer: stepping dim i adds
	// st[i]; wrapping it back subtracts the (Count[i]-1)*st[i] it had
	// accumulated. Keeps each segment O(1) instead of O(dims).
	off := int64(0)
	for i := range s.Dims {
		off += sl.Start[i] * st[i]
	}
	for {
		if !fn(off*s.Elem, g.SegBytes) {
			return
		}
		// increment odometer
		carry := true
		for i := outer - 1; i >= 0 && carry; i-- {
			idx[i]++
			if idx[i] < sl.Count[i] {
				off += st[i]
				carry = false
			} else {
				off -= (sl.Count[i] - 1) * st[i]
				idx[i] = 0
			}
		}
		if carry {
			return
		}
	}
}

// intersect returns the overlap of the slab with the axis-aligned box
// [boxStart, boxStart+boxCount) as a slab, and whether it is non-empty.
func (s Space) intersect(sl Slab, boxStart, boxCount []int64) (Slab, bool) {
	out := Slab{Rank: sl.Rank, Start: make([]int64, len(s.Dims)), Count: make([]int64, len(s.Dims))}
	for i := range s.Dims {
		lo := max64(sl.Start[i], boxStart[i])
		hi := min64s(sl.Start[i]+sl.Count[i], boxStart[i]+boxCount[i])
		if lo >= hi {
			return Slab{}, false
		}
		out.Start[i] = lo
		out.Count[i] = hi - lo
	}
	return out, true
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64s(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
