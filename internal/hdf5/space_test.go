package hdf5

import (
	"testing"
	"testing/quick"
)

func mustSpace(t *testing.T, dims []int64, elem int64) Space {
	t.Helper()
	s, err := NewSpace(dims, elem)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(nil, 8); err == nil {
		t.Fatal("no dims: want error")
	}
	if _, err := NewSpace([]int64{4, 0}, 8); err == nil {
		t.Fatal("zero dim: want error")
	}
	if _, err := NewSpace([]int64{4}, 0); err == nil {
		t.Fatal("zero elem: want error")
	}
}

func TestSpaceTotals(t *testing.T) {
	s := mustSpace(t, []int64{4, 8}, 8)
	if s.Elements() != 32 || s.TotalBytes() != 256 {
		t.Fatalf("Elements=%d TotalBytes=%d", s.Elements(), s.TotalBytes())
	}
}

func TestValidateSlab(t *testing.T) {
	s := mustSpace(t, []int64{4, 8}, 8)
	good := Slab{Start: []int64{1, 2}, Count: []int64{2, 4}}
	if err := s.ValidateSlab(good); err != nil {
		t.Fatal(err)
	}
	bad := []Slab{
		{Start: []int64{1}, Count: []int64{2}},             // wrong rank
		{Start: []int64{-1, 0}, Count: []int64{1, 1}},      // negative start
		{Start: []int64{0, 0}, Count: []int64{0, 1}},       // zero count
		{Start: []int64{3, 0}, Count: []int64{2, 1}},       // overflow dim 0
		{Start: []int64{0, 6}, Count: []int64{1, 3}},       // overflow dim 1
		{Start: []int64{0, 0, 0}, Count: []int64{1, 1, 1}}, // extra dims
		{Start: []int64{0, 0}, Count: []int64{1}},          // count rank short
	}
	for i, sl := range bad {
		if err := s.ValidateSlab(sl); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestSlabBytes(t *testing.T) {
	s := mustSpace(t, []int64{4, 8}, 8)
	sl := Slab{Start: []int64{0, 0}, Count: []int64{2, 3}}
	if got := s.SlabBytes(sl); got != 48 {
		t.Fatalf("SlabBytes = %d, want 48", got)
	}
}

func TestGeometryFullRows(t *testing.T) {
	// Selecting 2 full rows of a 4x8 space is one contiguous run.
	s := mustSpace(t, []int64{4, 8}, 8)
	g := s.Geometry(Slab{Start: []int64{1, 0}, Count: []int64{2, 8}})
	if g.NSegments != 1 || g.SegBytes != 2*8*8 || g.FirstByte != 8*8 {
		t.Fatalf("geometry = %+v", g)
	}
}

func TestGeometryStridedColumns(t *testing.T) {
	// Selecting columns 2..5 of every row: 4 segments of 4 elements.
	s := mustSpace(t, []int64{4, 8}, 8)
	g := s.Geometry(Slab{Start: []int64{0, 2}, Count: []int64{4, 4}})
	if g.NSegments != 4 || g.SegBytes != 4*8 {
		t.Fatalf("geometry = %+v", g)
	}
	if g.FirstByte != 2*8 {
		t.Fatalf("FirstByte = %d", g.FirstByte)
	}
	// span: first elem (0,2)=idx2; last elem (3,5)=idx 29 -> span (29-2+1)*8
	if g.SpanBytes != 28*8 {
		t.Fatalf("SpanBytes = %d", g.SpanBytes)
	}
}

func TestGeometry3D(t *testing.T) {
	// 8x8x8 space, slab 2x4x8 (full innermost): segments = 2 (outer),
	// each 4*8 elements.
	s := mustSpace(t, []int64{8, 8, 8}, 4)
	g := s.Geometry(Slab{Start: []int64{0, 4, 0}, Count: []int64{2, 4, 8}})
	if g.NSegments != 2 || g.SegBytes != 4*8*4 {
		t.Fatalf("geometry = %+v", g)
	}
}

func TestGeometryWholeSpace(t *testing.T) {
	s := mustSpace(t, []int64{4, 8}, 8)
	g := s.Geometry(Slab{Start: []int64{0, 0}, Count: []int64{4, 8}})
	if g.NSegments != 1 || g.SegBytes != s.TotalBytes() || g.FirstByte != 0 {
		t.Fatalf("geometry = %+v", g)
	}
}

func TestForEachSegmentMatchesGeometry(t *testing.T) {
	s := mustSpace(t, []int64{6, 5, 7}, 8)
	sl := Slab{Start: []int64{1, 1, 2}, Count: []int64{3, 2, 4}}
	g := s.Geometry(sl)
	var n, total int64
	last := int64(-1)
	s.ForEachSegment(sl, func(off, size int64) bool {
		if size != g.SegBytes {
			t.Fatalf("segment size %d, want %d", size, g.SegBytes)
		}
		if off <= last {
			t.Fatalf("segments not increasing: %d after %d", off, last)
		}
		last = off
		n++
		total += size
		return true
	})
	if n != g.NSegments {
		t.Fatalf("segments = %d, want %d", n, g.NSegments)
	}
	if total != s.SlabBytes(sl) {
		t.Fatalf("segment bytes %d, want %d", total, s.SlabBytes(sl))
	}
}

// Strides live on the caller's stack for a space of up to eight dimensions:
// Geometry allocates nothing, ForEachSegment only its odometer, and a
// nine-dimensional space computes what it always did.
func TestStridesStayOnTheStack(t *testing.T) {
	s := mustSpace(t, []int64{6, 5, 7}, 8)
	sl := Slab{Start: []int64{1, 1, 2}, Count: []int64{3, 2, 4}}
	var segs int64
	if allocs := testing.AllocsPerRun(100, func() { segs += s.Geometry(sl).NSegments }); allocs != 0 {
		t.Errorf("Geometry allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.ForEachSegment(sl, func(off, size int64) bool { segs--; return true })
	}); allocs > 1 {
		t.Errorf("ForEachSegment allocates %v times, want 1 (the odometer)", allocs)
	}
	if segs != 0 {
		t.Errorf("ForEachSegment and Geometry disagree by %d segments", segs)
	}
	wide := mustSpace(t, []int64{2, 2, 2, 2, 2, 2, 2, 2, 3}, 1)
	one := []int64{1, 1, 1, 1, 1, 1, 1, 1, 1}
	if g := wide.Geometry(Slab{Start: one, Count: one}); g.FirstByte != 766 || g.SegBytes != 1 {
		t.Errorf("9-d geometry %+v, want the element at byte 766 (strides 384, 192, … 3, 1)", g)
	}
}

func TestForEachSegmentEarlyStop(t *testing.T) {
	s := mustSpace(t, []int64{4, 4}, 8)
	sl := Slab{Start: []int64{0, 0}, Count: []int64{4, 2}}
	count := 0
	s.ForEachSegment(sl, func(off, size int64) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop: visited %d", count)
	}
}

func TestSegmentBytesPropertyRandomSlabs(t *testing.T) {
	s := mustSpace(t, []int64{5, 6, 7}, 4)
	f := func(a, b, c, x, y, z uint8) bool {
		start := []int64{int64(a % 5), int64(b % 6), int64(c % 7)}
		count := []int64{
			1 + int64(x)%(5-start[0]),
			1 + int64(y)%(6-start[1]),
			1 + int64(z)%(7-start[2]),
		}
		sl := Slab{Start: start, Count: count}
		if err := s.ValidateSlab(sl); err != nil {
			return false
		}
		var total int64
		seen := make(map[int64]bool)
		overlap := false
		s.ForEachSegment(sl, func(off, size int64) bool {
			total += size
			for b := off; b < off+size; b += 4 {
				if seen[b] {
					overlap = true
				}
				seen[b] = true
			}
			return true
		})
		return !overlap && total == s.SlabBytes(sl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersect(t *testing.T) {
	s := mustSpace(t, []int64{8, 8}, 8)
	sl := Slab{Rank: 3, Start: []int64{2, 2}, Count: []int64{4, 4}}
	inter, ok := s.intersect(sl, []int64{4, 0}, []int64{4, 4})
	if !ok {
		t.Fatal("want intersection")
	}
	if inter.Start[0] != 4 || inter.Count[0] != 2 || inter.Start[1] != 2 || inter.Count[1] != 2 {
		t.Fatalf("intersect = %+v", inter)
	}
	if inter.Rank != 3 {
		t.Fatal("rank lost")
	}
	if _, ok := s.intersect(sl, []int64{6, 6}, []int64{2, 2}); ok {
		t.Fatal("disjoint boxes must not intersect")
	}
}
