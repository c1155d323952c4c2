package replay

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/workload"
)

func recordTrace(t *testing.T, name string, seed int64) *Trace {
	t.Helper()
	c := cluster.CoriHaswell(2, 8)
	defaults := params.DefaultAssignment(params.Space()).Settings()
	st, err := workload.BuildStack(c, defaults, seed)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName(name, c.Procs())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Record(w, st)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// The kernel store hands a trace recorded in one session to sessions with
// different seeds, so traces must not depend on the recording seed: they
// capture what the application issues, not how the hardware times it.
func TestKernelStoreTraceSeedIndependent(t *testing.T) {
	for _, name := range []string{"vpic", "hacc", "flash", "bdcats", "macsio"} {
		a, err := recordTrace(t, name, 3).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		b, err := recordTrace(t, name, 99).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: recorded trace differs across seeds", name)
		}
	}
}

func TestKernelStore(t *testing.T) {
	s := NewKernelStore()
	if _, ok := s.Get("workload:macsio/16"); ok {
		t.Fatal("empty store reported a hit")
	}
	tr := recordTrace(t, "macsio", 3)
	s.Put("workload:macsio/16", KernelEntry{Trace: tr, KernelHash: "trace:abc"})
	s.Put("workload:macsio/16", KernelEntry{Trace: recordTrace(t, "vpic", 3), KernelHash: "trace:def"})
	e, ok := s.Get("workload:macsio/16")
	if !ok {
		t.Fatal("stored kernel not found")
	}
	if e.Trace != tr || e.KernelHash != "trace:abc" {
		t.Fatal("second Put overwrote the first entry (first recording must win)")
	}
	s.Put("nil", KernelEntry{})
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (nil-trace Put must be ignored)", s.Len())
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Kernels != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 kernel", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

// Two views on one shared cache: artifacts are shared (the second view's
// first query is a hit), while hit/miss counters stay per-view.
func TestSharedStageCacheViews(t *testing.T) {
	tr := recordTrace(t, "macsio", 3)
	shared := NewSharedStageCache()
	shared.Register("trace:k1", tr)
	shared.Register("trace:k1", recordTrace(t, "vpic", 3)) // first registration must win
	if !shared.HasKernel("trace:k1") || shared.Kernels() != 1 {
		t.Fatal("registration bookkeeping wrong")
	}

	a := params.DefaultAssignment(params.Space())
	s := a.Settings()
	v1 := shared.View("trace:k1")
	wp1, err := v1.WireFor(a, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	v2 := shared.View("trace:k1")
	wp2, err := v2.WireFor(a, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if wp1 != wp2 {
		t.Fatal("views did not share the cached wire plan")
	}
	if st := v1.Stats(); st.WireMisses != 1 || st.WireHits != 0 || st.PlanMisses != 1 {
		t.Fatalf("view1 stats = %+v, want 1 wire miss / 1 plan miss", st)
	}
	if st := v2.Stats(); st.WireHits != 1 || st.WireMisses != 0 {
		t.Fatalf("view2 stats = %+v, want 1 wire hit", st)
	}
	if st := shared.Stats(); st.WireHits != 1 || st.WireMisses != 1 {
		t.Fatalf("shared stats = %+v, want 1 hit + 1 miss", st)
	}

	// A view on a different kernel must not see k1's artifacts.
	shared.Register("trace:k2", recordTrace(t, "vpic", 3))
	v3 := shared.View("trace:k2")
	wp3, err := v3.WireFor(a, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if wp3 == wp1 {
		t.Fatal("kernel keys did not partition the shared cache")
	}
	if st := v3.Stats(); st.WireMisses != 1 || st.WireDistinct != 1 || st.PlanDistinct != 1 {
		t.Fatalf("view3 stats = %+v, want 1 wire miss adding 1 plan and 1 wire", st)
	}

	// The same trace under another key is a miss of its own — keys are
	// never answered across kernels — that adds nothing: the artifacts are
	// pure data, held once per content.
	shared.Register("trace:k1-again", tr)
	v4 := shared.View("trace:k1-again")
	wp4, err := v4.WireFor(a, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if wp4 != wp1 {
		t.Fatal("equal content under two kernel keys was built twice")
	}
	if st := v4.Stats(); st.WireMisses != 1 || st.PlanMisses != 1 || st.WireDistinct != 0 || st.PlanDistinct != 0 {
		t.Fatalf("view4 stats = %+v, want 1 wire miss and 1 plan miss adding nothing", st)
	}
	if st := shared.Stats(); st.PlanDistinct != 2 || st.WireDistinct != 2 || st.WireMisses != 3 {
		t.Fatalf("shared stats = %+v, want 3 wire misses over 2 plans and 2 wires", st)
	}
}

// A view keyed to an unregistered kernel fails loudly instead of planning
// against someone else's trace.
func TestSharedStageCacheUnregisteredKernel(t *testing.T) {
	shared := NewSharedStageCache()
	a := params.DefaultAssignment(params.Space())
	if _, err := shared.View("trace:ghost").WireFor(a, a.Settings(), 8); err == nil {
		t.Fatal("WireFor on an unregistered kernel: want error")
	}
}

// A trace filed under one key can be filed again under another: both views
// plan from it, and a key, once bound, keeps its first trace.
func TestStageCacheRebind(t *testing.T) {
	tr := recordTrace(t, "macsio", 3)
	c, early := privateCache(tr)
	c.Register("trace:late", tr)
	if !c.HasKernel("trace:late") || c.Kernels() != 2 {
		t.Fatalf("%d kernels registered, want the trace under both keys", c.Kernels())
	}
	late := c.View("trace:late")
	if late.KernelKey() != "trace:late" {
		t.Fatalf("kernel key = %q", late.KernelKey())
	}
	a := params.DefaultAssignment(params.Space())
	for _, v := range []*CacheView{early, late} {
		if _, err := v.WireFor(a, a.Settings(), 8); err != nil {
			t.Fatalf("%s: %v", v.KernelKey(), err)
		}
	}
	// First registration wins: another kernel's trace cannot take the key.
	c.Register("trace:late", recordTrace(t, "vpic", 3))
	b := mutate(t, map[string]int{params.Alignment: 3})
	wp, err := late.WireFor(b, b.Settings(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := lowerFresh(tr, b.Settings(), 8); len(wp.ops) != len(want.ops) {
		t.Fatalf("trace:late plans %d ops, the first trace plans %d", len(wp.ops), len(want.ops))
	}
}

// The persisted store must survive a full round trip: every trace byte-
// identical, kernel hashes preserved, counts reported.
func TestKernelStoreSaveLoadRoundTrip(t *testing.T) {
	s := NewKernelStore()
	traces := map[string]*Trace{
		"workload:macsio/16": recordTrace(t, "macsio", 3),
		"workload:vpic/16":   recordTrace(t, "vpic", 3),
	}
	for k, tr := range traces {
		s.Put(k, KernelEntry{Trace: tr, KernelHash: TraceKey(tr)})
	}
	path := filepath.Join(t.TempDir(), "kernels.json")
	n, err := s.Save(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("saved %d kernels, want 2", n)
	}

	fresh := NewKernelStore()
	if n, err = fresh.Load(path); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("loaded %d kernels, want 2", n)
	}
	for k, tr := range traces {
		e, ok := fresh.Get(k)
		if !ok {
			t.Fatalf("kernel %q missing after load", k)
		}
		if e.KernelHash != TraceKey(tr) {
			t.Fatalf("kernel %q hash changed: %q", k, e.KernelHash)
		}
		want, err := tr.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Trace.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("kernel %q trace changed across save/load", k)
		}
	}

	// Deterministic file: saving the same kernels again is byte-identical.
	path2 := filepath.Join(t.TempDir(), "kernels.json")
	if _, err := fresh.Save(path2); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("re-saved store file differs")
	}
}

// A store file with a tampered trace must fail the whole load — no
// partial application — and leave the target store untouched.
func TestKernelStoreLoadRejectsCorruption(t *testing.T) {
	s := NewKernelStore()
	tr := recordTrace(t, "macsio", 3)
	s.Put("workload:macsio/16", KernelEntry{Trace: tr, KernelHash: TraceKey(tr)})
	path := filepath.Join(t.TempDir(), "kernels.json")
	if _, err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Replace(b, []byte(`"nprocs"`), []byte(`"nprXcs"`), 1)
	if bytes.Equal(mut, b) {
		t.Fatal("corruption probe found nothing to flip")
	}
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := NewKernelStore()
	if _, err := fresh.Load(path); err == nil {
		t.Fatal("tampered store file loaded")
	}
	if fresh.Len() != 0 {
		t.Fatalf("failed load applied %d kernels", fresh.Len())
	}
}

// Loading under a live store follows the first-Put-wins rule: keys the
// store already holds keep their in-memory entries.
func TestKernelStoreLoadFirstWins(t *testing.T) {
	disk := NewKernelStore()
	diskTrace := recordTrace(t, "macsio", 3)
	disk.Put("workload:macsio/16", KernelEntry{Trace: diskTrace, KernelHash: "trace:disk"})
	path := filepath.Join(t.TempDir(), "kernels.json")
	if _, err := disk.Save(path); err != nil {
		t.Fatal(err)
	}

	live := NewKernelStore()
	liveTrace := recordTrace(t, "vpic", 3)
	live.Put("workload:macsio/16", KernelEntry{Trace: liveTrace, KernelHash: "trace:live"})
	if _, err := live.Load(path); err != nil {
		t.Fatal(err)
	}
	e, _ := live.Get("workload:macsio/16")
	if e.KernelHash != "trace:live" {
		t.Fatalf("load replaced a live entry: %q", e.KernelHash)
	}
}

// An unknown store file version is rejected outright.
func TestKernelStoreLoadRejectsVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kernels.json")
	if err := os.WriteFile(path, []byte(`{"version":99,"kernels":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewKernelStore().Load(path); err == nil {
		t.Fatal("future-versioned store file loaded")
	}
}

// A write that fails part-way — after bytes have reached the temporary
// file — leaves the previous file byte-identical and no temporary behind;
// one that succeeds replaces the file whole.
func TestWriteFileAtomicFailureKeepsPreviousFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	previous := []byte("previous contents\n")
	if err := WriteFileAtomic(path, previous); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk full")
	err := writeAtomic(path, func(f *os.File) error {
		if _, err := f.Write([]byte("half of the new cont")); err != nil {
			t.Fatal(err)
		}
		return boom
	})
	if err != boom {
		t.Fatalf("writeAtomic returned %v, want the write's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, previous) {
		t.Fatalf("after a failed write the file reads %q, %v; want the previous contents", got, err)
	}
	// A rename that cannot happen (the target is a directory) cleans up too.
	if err := WriteFileAtomic(dir, []byte("x")); err == nil {
		t.Fatal("writing over a directory: want error")
	}
	for _, d := range []string{dir, filepath.Dir(dir)} {
		if left, _ := filepath.Glob(filepath.Join(d, "*.tmp")); len(left) != 0 {
			t.Fatalf("failed writes left temporaries behind: %v", left)
		}
	}

	if err := WriteFileAtomic(path, []byte("new contents\n")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new contents\n" {
		t.Fatalf("after a successful write the file reads %q", got)
	}
}
