package replay_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tunio/internal/replay"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

// kernel records a workload model on 16 processes as a job does and returns
// the key the store files it under, and its trace.
func kernel(t *testing.T, name string) (string, *replay.Trace) {
	t.Helper()
	w, err := workload.ByName(name, 16)
	if err != nil {
		t.Fatal(err)
	}
	src := tuner.KernelSource{Workload: w, Nprocs: 16}
	k, err := tuner.ResolveKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	return src.Key(), k.Trace
}

func TestKernelStore(t *testing.T) {
	s := replay.NewKernelStore()
	key, tr := kernel(t, "macsio")
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	_, other := kernel(t, "vpic")
	s.Put(key, replay.KernelEntry{Trace: tr, KernelHash: "trace:abc"})
	s.Put(key, replay.KernelEntry{Trace: other, KernelHash: "trace:def"})
	e, ok := s.Get(key)
	if !ok {
		t.Fatal("stored kernel not found")
	}
	if e.Trace != tr || e.KernelHash != "trace:abc" {
		t.Fatal("second Put overwrote the first entry (first recording must win)")
	}
	s.Put("nil", replay.KernelEntry{})
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

// The persisted store must survive a full round trip: every trace byte-
// identical, kernel hashes preserved, counts reported.
func TestKernelStoreSaveLoadRoundTrip(t *testing.T) {
	s := replay.NewKernelStore()
	traces := map[string]*replay.Trace{}
	for _, name := range []string{"macsio", "vpic"} {
		key, tr := kernel(t, name)
		traces[key] = tr
	}
	for k, tr := range traces {
		s.Put(k, replay.KernelEntry{Trace: tr, KernelHash: replay.TraceKey(tr)})
	}
	path := filepath.Join(t.TempDir(), "kernels.json")
	n, err := s.Save(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("saved %d kernels, want 2", n)
	}

	fresh := replay.NewKernelStore()
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
		if e.KernelHash != replay.TraceKey(tr) {
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
	s := replay.NewKernelStore()
	key, tr := kernel(t, "macsio")
	s.Put(key, replay.KernelEntry{Trace: tr, KernelHash: replay.TraceKey(tr)})
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
	fresh := replay.NewKernelStore()
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
	disk := replay.NewKernelStore()
	key, diskTrace := kernel(t, "macsio")
	disk.Put(key, replay.KernelEntry{Trace: diskTrace, KernelHash: "trace:disk"})
	path := filepath.Join(t.TempDir(), "kernels.json")
	if _, err := disk.Save(path); err != nil {
		t.Fatal(err)
	}

	live := replay.NewKernelStore()
	_, liveTrace := kernel(t, "vpic")
	live.Put(key, replay.KernelEntry{Trace: liveTrace, KernelHash: "trace:live"})
	if _, err := live.Load(path); err != nil {
		t.Fatal(err)
	}
	e, _ := live.Get(key)
	if e.KernelHash != "trace:live" {
		t.Fatalf("load replaced a live entry: %q", e.KernelHash)
	}
}

// A store file of another version is refused with its version named: a
// version-1 file keyed kernels by names this store never looks up, so its
// entries could only miss, and a future one is not guessed at.
func TestKernelStoreLoadRejectsVersion(t *testing.T) {
	for _, v := range []int{1, 99} {
		path := filepath.Join(t.TempDir(), "kernels.json")
		if err := os.WriteFile(path, []byte(fmt.Sprintf(`{"version":%d,"kernels":[]}`, v)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := replay.NewKernelStore().Load(path)
		if want := fmt.Sprintf("version %d, want 2", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d store file: Load err = %v, want it refused naming %q", v, err, want)
		}
	}
}

// A write that fails part-way — after bytes have reached the temporary
// file — leaves the previous file byte-identical and no temporary behind;
// one that succeeds replaces the file whole.
func TestWriteFileAtomicFailureKeepsPreviousFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	previous := []byte("previous contents\n")
	if err := replay.WriteFileAtomic(path, previous); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk full")
	err := replay.WriteAtomic(path, func(f *os.File) error {
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
	if err := replay.WriteFileAtomic(dir, []byte("x")); err == nil {
		t.Fatal("writing over a directory: want error")
	}
	for _, d := range []string{dir, filepath.Dir(dir)} {
		if left, _ := filepath.Glob(filepath.Join(d, "*.tmp")); len(left) != 0 {
			t.Fatalf("failed writes left temporaries behind: %v", left)
		}
	}

	if err := replay.WriteFileAtomic(path, []byte("new contents\n")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new contents\n" {
		t.Fatalf("after a successful write the file reads %q", got)
	}
}
