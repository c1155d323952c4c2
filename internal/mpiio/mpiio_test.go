package mpiio

import (
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/ioreq"
	"tunio/internal/lustre"
)

func newStack(t *testing.T, nodes, ppn int) (*cluster.Sim, *lustre.Backend) {
	t.Helper()
	c := cluster.CoriHaswell(nodes, ppn)
	c.Noise = 0
	sim, err := cluster.NewSim(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := lustre.New(lustre.CoriScratch(), sim)
	if err != nil {
		t.Fatal(err)
	}
	return sim, &lustre.Backend{FS: fs, StripeCount: 8, StripeSize: 1 << 20}
}

func TestOpenValidation(t *testing.T) {
	sim, be := newStack(t, 4, 32)
	if _, err := Open(sim, be, "", 128, Hints{}); err == nil {
		t.Fatal("empty name: want error")
	}
	if _, err := Open(sim, be, "f", 0, Hints{}); err == nil {
		t.Fatal("zero procs: want error")
	}
	f, err := Open(sim, be, "f", 128, Hints{CBNodes: 100000, CBBufferSize: -5})
	if err != nil {
		t.Fatal(err)
	}
	h := f.Hints()
	if h.CBNodes != 128 {
		t.Fatalf("CBNodes not clamped: %d", h.CBNodes)
	}
	if h.CBBufferSize != 16<<20 {
		t.Fatalf("CBBufferSize default: %d", h.CBBufferSize)
	}
}

// stridedExtents builds the classic interleaved small-block pattern that
// collective buffering exists to fix: each rank writes `blocks` blocks of
// `blockSize`, strided by nprocs.
func stridedExtents(nprocs, blocks int, blockSize int64) []ioreq.Extent {
	var out []ioreq.Extent
	for r := 0; r < nprocs; r++ {
		for b := 0; b < blocks; b++ {
			off := (int64(b)*int64(nprocs) + int64(r)) * blockSize
			out = append(out, ioreq.Extent{Offset: off, Size: blockSize, Rank: r})
		}
	}
	return out
}

func TestCollectiveBeatsIndependentOnStridedSmallWrites(t *testing.T) {
	run := func(collective bool) float64 {
		sim, be := newStack(t, 4, 32)
		f, err := Open(sim, be, "f", 128, Hints{
			CollectiveWrite: collective, CBNodes: 4, CBBufferSize: 16 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := f.WriteAll(stridedExtents(128, 32, 128<<10))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ind := run(false)
	coll := run(true)
	if coll >= ind {
		t.Fatalf("collective %.4fs not faster than independent %.4fs", coll, ind)
	}
}

func TestCollectiveWriteCoversAllBytes(t *testing.T) {
	sim, be := newStack(t, 4, 32)
	f, _ := Open(sim, be, "f", 128, Hints{CollectiveWrite: true, CBNodes: 8, CBBufferSize: 4 << 20})
	extents := stridedExtents(128, 8, 256<<10)
	want := ioreq.TotalBytes(extents)
	if _, err := f.WriteAll(extents); err != nil {
		t.Fatal(err)
	}
	if got := sim.Report.Layer("lustre").BytesWritten; got != want {
		t.Fatalf("lustre received %d bytes, want %d", got, want)
	}
	if got := sim.Report.Layer("mpiio").BytesWritten; got != want {
		t.Fatalf("mpiio recorded %d bytes, want %d", got, want)
	}
}

func TestTinyCollectiveBufferCostsMoreRounds(t *testing.T) {
	run := func(buf int64) float64 {
		sim, be := newStack(t, 4, 32)
		f, _ := Open(sim, be, "f", 128, Hints{CollectiveWrite: true, CBNodes: 4, CBBufferSize: buf})
		d, err := f.WriteAll(stridedExtents(128, 16, 256<<10))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	small := run(256 << 10)
	large := run(64 << 20)
	if small <= large {
		t.Fatalf("256KiB buffer %.4fs not slower than 64MiB %.4fs", small, large)
	}
}

func TestIndependentPassThrough(t *testing.T) {
	sim, be := newStack(t, 4, 32)
	f, _ := Open(sim, be, "f", 128, Hints{})
	exts := []ioreq.Extent{{Offset: 0, Size: 1 << 20, Rank: 0}}
	d, err := f.WriteIndependent(exts)
	if err != nil || d <= 0 {
		t.Fatalf("independent write: %v, %v", d, err)
	}
	if sim.Report.Layer("mpiio").WriteOps != 1 {
		t.Fatal("mpiio write not counted")
	}
	d, err = f.ReadIndependent(exts)
	if err != nil || d <= 0 {
		t.Fatalf("independent read: %v, %v", d, err)
	}
}

func TestReadAllCollective(t *testing.T) {
	sim, be := newStack(t, 4, 32)
	// Populate the file first.
	fw, _ := Open(sim, be, "f", 128, Hints{CollectiveWrite: true, CBNodes: 4})
	extents := stridedExtents(128, 8, 256<<10)
	fw.WriteAll(extents)

	fr, _ := Open(sim, be, "f", 128, Hints{CollectiveRead: true, CBNodes: 4})
	d, err := fr.ReadAll(extents)
	if err != nil || d <= 0 {
		t.Fatalf("collective read: %v, %v", d, err)
	}
	if got, want := sim.Report.Layer("mpiio").BytesRead, ioreq.TotalBytes(extents); got != want {
		t.Fatalf("read bytes %d, want %d", got, want)
	}
}

func TestEmptyTransfers(t *testing.T) {
	sim, be := newStack(t, 4, 32)
	f, _ := Open(sim, be, "f", 128, Hints{CollectiveWrite: true})
	if d, err := f.WriteAll(nil); err != nil || d != 0 {
		t.Fatal("empty WriteAll should be free")
	}
	if d, err := f.WriteIndependent(nil); err != nil || d != 0 {
		t.Fatal("empty WriteIndependent should be free")
	}
}

func TestInvalidExtentRejected(t *testing.T) {
	sim, be := newStack(t, 4, 32)
	f, _ := Open(sim, be, "f", 128, Hints{CollectiveWrite: true})
	if _, err := f.WriteAll([]ioreq.Extent{{Offset: -2, Size: 1}}); err == nil {
		t.Fatal("want error")
	}
}

func TestCoverageRuns(t *testing.T) {
	runs := coverageRuns([]ioreq.Extent{
		{Offset: 100, Size: 50, Rank: 1},
		{Offset: 0, Size: 50, Rank: 0},
		{Offset: 25, Size: 50, Rank: 2}, // overlaps first run
	})
	if len(runs) != 2 {
		t.Fatalf("runs = %v", runs)
	}
	if runs[0].Offset != 0 || runs[0].Size != 75 || runs[1].Offset != 100 || runs[1].Size != 50 {
		t.Fatalf("runs = %v", runs)
	}
}

func TestSliceRuns(t *testing.T) {
	runs := []ioreq.Extent{{Offset: 0, Size: 100}, {Offset: 1000, Size: 100}}
	// coverage space is [0, 200); slice [50, 150) maps to file [50,100)+[1000,1050)
	out := sliceRuns(nil, runs, 50, 150, 7)
	if len(out) != 2 {
		t.Fatalf("sliceRuns = %v", out)
	}
	if out[0].Offset != 50 || out[0].Size != 50 || out[1].Offset != 1000 || out[1].Size != 50 {
		t.Fatalf("sliceRuns = %v", out)
	}
	for _, e := range out {
		if e.Rank != 7 {
			t.Fatal("aggregator rank not attributed")
		}
	}
	if got := sliceRuns(nil, runs, 500, 600, 0); got != nil {
		t.Fatalf("out-of-coverage slice = %v, want nil", got)
	}
}

func TestMoreAggregatorsHelpLargeContiguous(t *testing.T) {
	// With 64 nodes and a wide stripe, 32 aggregators should beat 1.
	run := func(cb int) float64 {
		c := cluster.CoriHaswell(64, 2)
		c.Noise = 0
		sim, _ := cluster.NewSim(c, 1)
		fs, _ := lustre.New(lustre.CoriScratch(), sim)
		be := &lustre.Backend{FS: fs, StripeCount: 64, StripeSize: 1 << 20}
		f, _ := Open(sim, be, "f", 128, Hints{CollectiveWrite: true, CBNodes: cb, CBBufferSize: 32 << 20})
		var extents []ioreq.Extent
		const per = 16 << 20
		for r := 0; r < 128; r++ {
			extents = append(extents, ioreq.Extent{Offset: int64(r) * per, Size: per, Rank: r})
		}
		d, err := f.WriteAll(extents)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	one := run(1)
	many := run(32)
	if many >= one {
		t.Fatalf("32 aggregators %.4fs not faster than 1 aggregator %.4fs", many, one)
	}
}

func TestCollectiveCoverageWithStridedSpans(t *testing.T) {
	// Interleaved strided extents: each of 4 ranks owns every 4th 256KiB
	// block of a 16MiB region, expressed as one extent per rank with
	// Span = full region. The collective union must cover all 16MiB.
	sim, be := newStack(t, 4, 32)
	f, _ := Open(sim, be, "f", 128, Hints{CollectiveWrite: true, CBNodes: 4, CBBufferSize: 32 << 20})
	const region = 16 << 20
	var extents []ioreq.Extent
	for r := 0; r < 4; r++ {
		extents = append(extents, ioreq.Extent{
			Offset: int64(r) * (256 << 10),
			Size:   region / 4,
			Rank:   r,
			Count:  16,
			Span:   region - int64(r)*(256<<10),
		})
	}
	if _, err := f.WriteAll(extents); err != nil {
		t.Fatal(err)
	}
	if got := sim.Report.Layer("lustre").BytesWritten; got != region {
		t.Fatalf("lustre received %d bytes, want full %d coverage", got, region)
	}
}

func TestIndependentStridedSpanSpreadsOverStripes(t *testing.T) {
	// A strided extent spanning many stripes must load several OSTs even
	// though its payload is small relative to the span.
	sim, be := newStack(t, 4, 32)
	f, _ := Open(sim, be, "f", 128, Hints{})
	dense := func() float64 {
		d, err := f.WriteIndependent([]ioreq.Extent{{Offset: 0, Size: 2 << 20, Rank: 0}})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}()
	strided := func() float64 {
		d, err := f.WriteIndependent([]ioreq.Extent{{
			Offset: 0, Size: 2 << 20, Rank: 0, Count: 32, Span: 32 << 20,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}()
	_ = dense
	_ = strided
	// both must complete; detailed distribution checked at the lustre level
	if got := sim.Report.Layer("lustre").BytesWritten; got != 4<<20 {
		t.Fatalf("bytes written = %d, want 4MiB total", got)
	}
}
