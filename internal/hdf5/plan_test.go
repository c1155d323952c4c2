package hdf5

import (
	"testing"
	"unsafe"

	"tunio/internal/mpiio"
)

// TestPlannerCollectsWhatTheLibraryResolves drives a planning library
// through one small file — a contiguous dataset, a chunked one rewritten
// under a cache too small to keep its chunk, a reopen — and checks the op
// list it hands out: the kinds in call order, files by index, and the
// storage discipline cached plans rely on (an op no larger than 88 bytes,
// op list and extents without growth slack).
func TestPlannerCollectsWhatTheLibraryResolves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChunkCacheBytes = 0
	if _, err := NewPlanner(cfg, 0); err == nil {
		t.Error("zero procs: want error")
	}
	bad := cfg
	bad.SieveBufSize = -1
	if _, err := NewPlanner(bad, 2); err == nil {
		t.Error("bad config: want error")
	}
	lib, err := NewPlanner(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}

	space, err := NewSpace([]int64{64}, 8)
	if err != nil {
		t.Fatal(err)
	}
	half := func(rank int) Slab { return Slab{Rank: rank, Start: []int64{int64(32 * rank)}, Count: []int64{32}} }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	other, err := lib.CreateFile("/scratch/other.h5")
	must(err)
	f, err := lib.CreateFile("/scratch/plan.h5")
	must(err)
	flat, err := f.CreateDataset("flat", space, nil)
	must(err)
	_, err = flat.Write([]Slab{half(0), half(1)})
	must(err)
	chunked, err := f.CreateDataset("chunked", space, []int64{64})
	must(err)
	for i := 0; i < 2; i++ { // the second write finds the chunk written, partial and uncached
		_, err = chunked.Write([]Slab{half(i)})
		must(err)
	}
	lib.Compute(1e6)
	must(f.Close())
	must(other.Close())
	f, err = lib.OpenFile("/scratch/plan.h5")
	must(err)
	_, err = f.OpenDataset("flat")
	must(err)
	must(f.Close())

	files, ops := lib.Plan()
	if len(files) != 2 || files[0] != "/scratch/other.h5" || files[1] != "/scratch/plan.h5" {
		t.Errorf("files = %v, want first-creation order", files)
	}
	want := []struct {
		kind OpKind
		file int32
	}{
		{OpOpen, 0}, {OpOpen, 1},
		{OpMetaTouch, 1}, {OpData, 1}, {OpAccount, 0}, // flat write
		{OpMetaTouch, 1}, {OpData, 1}, {OpAccount, 0}, // first chunked write
		{OpMetaTouch, 1}, {OpData, 1}, {OpData, 1}, {OpAccount, 0}, // rewrite: RMW read, then data
		{OpCompute, 0},
		{OpMetaFlush, 1}, {OpBarrier, 0},
		{OpMetaFlush, 0}, {OpBarrier, 0},
		{OpOpen, 1}, {OpMetaRead, 1}, {OpMetaRead, 1}, {OpBarrier, 0},
	}
	if len(ops) != len(want) {
		t.Fatalf("%d ops, want %d: %+v", len(ops), len(want), ops)
	}
	for i, w := range want {
		if ops[i].Kind != w.kind || ops[i].File != w.file {
			t.Errorf("op %d = kind %d file %d, want kind %d file %d", i, ops[i].Kind, ops[i].File, w.kind, w.file)
		}
		if e := ops[i].Extents; (ops[i].Kind == OpData) != (len(e) > 0) || cap(e) != len(e) {
			t.Errorf("op %d (kind %d): %d extents, capacity %d", i, ops[i].Kind, len(e), cap(e))
		}
	}
	if rmw := ops[9]; rmw.IsWrite || !ops[10].IsWrite {
		t.Errorf("rewrite of a written, uncached chunk: want a read phase before the write, got %+v then %+v", rmw, ops[10])
	}
	if cap(ops) != len(ops) {
		t.Errorf("op list has capacity %d for %d ops", cap(ops), len(ops))
	}
	if size := unsafe.Sizeof(Op{}); size > 88 {
		t.Errorf("Op is %d bytes, want <= 88: every cached plan holds one per operation", size)
	}

	// The live library refuses a nil simulation: that is what tells the two apart.
	if _, err := NewLibrary(nil, nil, mpiio.Hints{}, cfg, 2); err == nil {
		t.Error("NewLibrary without a simulation: want error")
	}
}
