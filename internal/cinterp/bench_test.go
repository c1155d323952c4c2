package cinterp

import (
	"testing"

	"tunio/internal/csrc"
	"tunio/internal/discovery"
	"tunio/internal/workload"
)

// ColdPrograms is coldPrograms, for BenchmarkRecordCold: internal/tuner
// imports this package, so what records through it is an external test.
var ColdPrograms = coldPrograms

// BenchmarkRunRanks interprets the 20 cold_source shapes at 128 ranks and
// stops there: resolve and run, no merge, no stack under it.
func BenchmarkRunRanks(b *testing.B) {
	progs := coldPrograms(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			for _, in := range interpret(prog, 128, 50_000_000) {
				if in.err != nil {
					b.Fatal(in.err)
				}
			}
		}
	}
}

// rankSteps is the number of steps one rank of the program takes.
func rankSteps(prog *csrc.File, rank, nprocs int, maxOps int64) int64 {
	in := newInterp(resolve(prog), rank, nprocs, maxOps, newScratch())
	in.runMain()
	return in.ops
}

// vpicRank is one rank of the discovered VPIC kernel writing vars datasets:
// what running it allocates, its log sized beforehand as Run sizes it, and
// how many calls it logs.
func vpicRank(t *testing.T, vars int) (allocs float64, calls int) {
	t.Helper()
	src := (&workload.VPIC{Procs: 4, ParticlesPerRank: 16 * 1024, Vars: vars, Steps: 1, Segments: 16,
		ComputeFlops: 1e9, Path: "/scratch/allocs.h5"}).CSource()
	k, err := discovery.Discover(src, discovery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, sc := resolve(parseProg(t, k.Source)), newScratch()
	first := newInterp(prog, 0, 4, 1<<30, sc)
	if first.runMain(); first.err != nil {
		t.Fatal(first.err)
	}
	calls = len(first.log)
	return testing.AllocsPerRun(50, func() {
		in := newInterp(prog, 1, 4, 1<<30, sc)
		in.log = make([]request, 0, calls)
		if in.runMain(); in.err != nil || len(in.log) != calls {
			t.Fatalf("rank 1: %v, %d calls, want %d", in.err, len(in.log), calls)
		}
	}), calls
}

// A rank allocates what it keeps — itself, its log, a frame a call, the
// names and extents its calls log — and nothing to get there: no scope, no
// argument list, no array the frame can hold. Twice the datasets is twice
// the names and extents, and the same of everything else.
func TestRankRunAllocs(t *testing.T) {
	few, fewCalls := vpicRank(t, 4)
	many, manyCalls := vpicRank(t, 8)
	t.Logf("4 datasets: %v allocations, %d calls; 8 datasets: %v allocations, %d calls", few, fewCalls, many, manyCalls)
	if few > 30 {
		t.Errorf("a rank writing 4 datasets allocates %v times, want <= 30", few)
	}
	// a dataset more is its name (the string and the value's object) and a
	// share of the block its dims, start and count are cut from
	if perDataset := (many - few) / 4; perDataset > 3 {
		t.Errorf("a dataset more costs %v allocations, want <= 3", perDataset)
	}
}
