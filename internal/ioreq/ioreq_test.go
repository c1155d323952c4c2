package ioreq

import (
	"testing"
	"testing/quick"
)

func TestExtentValidate(t *testing.T) {
	if err := (Extent{Offset: 0, Size: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Extent{Offset: -1, Size: 1}).Validate(); err == nil {
		t.Fatal("negative offset: want error")
	}
	if err := (Extent{Offset: 0, Size: 0}).Validate(); err == nil {
		t.Fatal("zero size: want error")
	}
}

func TestEnd(t *testing.T) {
	if (Extent{Offset: 10, Size: 5}).End() != 15 {
		t.Fatal("End wrong")
	}
}

func TestTotalBytes(t *testing.T) {
	exts := []Extent{{Offset: 0, Size: 10}, {Offset: 20, Size: 5, Rank: 1}}
	if TotalBytes(exts) != 15 {
		t.Fatalf("TotalBytes = %d", TotalBytes(exts))
	}
	if TotalBytes(nil) != 0 {
		t.Fatal("TotalBytes(nil) != 0")
	}
}

// coalesce merges adjacent or overlapping extents from the same rank,
// assuming the input is sorted by offset. It returns a new slice. No layer
// merges a rank's extents this way (each charges what it was handed); the
// tests below pin the request-count arithmetic such a merge must keep.
func coalesce(extents []Extent) []Extent {
	if len(extents) == 0 {
		return nil
	}
	out := make([]Extent, 0, len(extents))
	cur := extents[0]
	for _, e := range extents[1:] {
		if e.Rank == cur.Rank && e.Offset <= cur.End() {
			if e.End() > cur.End() {
				cur.Size = e.End() - cur.Offset
			}
			cur.Count = cur.Requests() + e.Requests()
			continue
		}
		out = append(out, cur)
		cur = e
	}
	return append(out, cur)
}

func TestCoalesce(t *testing.T) {
	got := coalesce([]Extent{
		{Offset: 0, Size: 10, Rank: 0},
		{Offset: 10, Size: 10, Rank: 0},  // adjacent same rank: merge
		{Offset: 15, Size: 10, Rank: 0},  // overlapping same rank: merge
		{Offset: 25, Size: 5, Rank: 1},   // adjacent different rank: keep
		{Offset: 100, Size: 10, Rank: 1}, // gap: keep
	})
	want := []Extent{
		{Offset: 0, Size: 25, Rank: 0, Count: 3}, // 3 original requests merged
		{Offset: 25, Size: 5, Rank: 1},
		{Offset: 100, Size: 10, Rank: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("coalesce = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coalesce[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if coalesce(nil) != nil {
		t.Fatal("coalesce(nil) != nil")
	}
}

func TestCoalescePreservesBytesProperty(t *testing.T) {
	// For non-overlapping sorted input, coalescing preserves total bytes.
	f := func(sizes [6]uint8, gaps [6]uint8) bool {
		var exts []Extent
		off := int64(0)
		for i := range sizes {
			off += int64(gaps[i]) + 1 // ensure strictly increasing, gap >= 1
			size := int64(sizes[i]) + 1
			exts = append(exts, Extent{Offset: off, Size: size, Rank: 0})
			off += size
		}
		return TotalBytes(coalesce(exts)) == TotalBytes(exts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpanLenAndDensity(t *testing.T) {
	dense := Extent{Offset: 0, Size: 100}
	if dense.SpanLen() != 100 || dense.Density() != 1 {
		t.Fatalf("dense: span %d density %v", dense.SpanLen(), dense.Density())
	}
	strided := Extent{Offset: 0, Size: 100, Span: 400}
	if strided.SpanLen() != 400 || strided.Density() != 0.25 {
		t.Fatalf("strided: span %d density %v", strided.SpanLen(), strided.Density())
	}
	// Span smaller than Size is ignored (dense)
	weird := Extent{Offset: 0, Size: 100, Span: 10}
	if weird.SpanLen() != 100 {
		t.Fatal("span < size must clamp to size")
	}
}

func TestRequestsAndSubSize(t *testing.T) {
	e := Extent{Offset: 0, Size: 100, Count: 4}
	if e.Requests() != 4 || e.SubSize() != 25 {
		t.Fatalf("requests %d subsize %d", e.Requests(), e.SubSize())
	}
	single := Extent{Offset: 0, Size: 100}
	if single.Requests() != 1 || single.SubSize() != 100 {
		t.Fatal("default single request wrong")
	}
}
