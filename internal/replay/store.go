package replay

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"tunio/internal/cowmap"
)

// TraceKey returns the kernel identity of a trace: an FNV-1a hash of its
// serialized form under the "trace:" prefix. Stage-cache artifacts and memo
// entries are filed under it, so two kernels that record the same trace are
// one kernel.
func TraceKey(t *Trace) string {
	h := fnv.New64a()
	if b, err := t.Marshal(); err == nil {
		h.Write(b)
	}
	return fmt.Sprintf("trace:%016x", h.Sum64())
}

// KernelEntry is one stored kernel: its recorded trace and the trace's
// TraceKey.
type KernelEntry struct {
	Trace      *Trace
	KernelHash string
}

// KernelStore is a content-addressed kernel store: identity key →
// recorded trace. Recording a kernel is the one per-tune cost the staged
// engine cannot cache away (the workload or interpreter has to run once);
// the store removes it for every session after the first, which is what
// makes trace replay pay off across tenants, not just across genomes.
//
// Keys are opaque here. They are kernel identities known before recording,
// derived in one place (tuner.KernelSource.Key: a hash of the kernel's
// content and its process count), so a session can look up the store
// instead of running the kernel at all. A trace depends on nothing else —
// it is recorded on a planning library, with no machine, seed or
// configuration under it — so reuse across sessions is sound.
//
// The traces it keeps are bounded by a bytes budget (storeBudget): a Put or
// Load that leaves the store over it evicts the least recently used
// kernels — by Get, Put, or never for one only loaded — down to the low
// water mark. An evicted kernel is recorded again by the next job that
// needs it, to the same trace.
//
// Safe for concurrent use. The entries live in a cowmap.Map, so reads are
// lock-free: a warm Get indexes the published immutable map and bumps two
// atomic counters, its hit and its entry's recency. The first Put under a
// key wins, so sessions racing to record the same kernel converge on one
// trace — and Save always serializes a single immutable snapshot, so a save
// concurrent with puts can never write a torn file. The zero value is an
// empty store.
type KernelStore struct {
	entries cowmap.Map[string, *storeItem]
	hits    atomic.Int64
	misses  atomic.Int64
	clock   atomic.Int64 // recency stamps
	held    atomic.Int64 // bytes of the stored traces; written under mu
	evicted atomic.Int64
	budget  int64      // bytes; 0 is storeBudget
	mu      sync.Mutex // serializes what adds or evicts
}

// storeItem is one stored kernel with its charge and its recency.
type storeItem struct {
	KernelEntry
	bytes int64
	used  atomic.Int64
}

// KernelStoreStats reports store traffic and occupancy: the kernels held,
// the bytes their traces are charged, and the kernels evicted so far.
type KernelStoreStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Kernels   int   `json:"kernels"`
	HeldBytes int64 `json:"held_bytes"`
	Evicted   int64 `json:"evicted"`
}

// HitRate returns the lookup hit fraction (0 when never queried).
func (s KernelStoreStats) HitRate() float64 { return hitRate(s.Hits, s.Misses) }

// NewKernelStore returns an empty store.
func NewKernelStore() *KernelStore { return new(KernelStore) }

// Get looks up the kernel recorded under the identity key, counting the
// lookup as a hit or miss and stamping a hit's recency. Lock-free on every
// path.
func (s *KernelStore) Get(key string) (KernelEntry, bool) {
	it, ok := s.entries.Snapshot()[key]
	if !ok {
		s.misses.Add(1)
		return KernelEntry{}, false
	}
	s.hits.Add(1)
	it.used.Store(s.clock.Add(1))
	return it.KernelEntry, true
}

// Put stores the kernel under the identity key. A key already present
// keeps its entry (first recording wins).
func (s *KernelStore) Put(key string, e KernelEntry) {
	if e.Trace == nil {
		return
	}
	fresh := &storeItem{KernelEntry: e, bytes: e.Trace.size()}
	fresh.used.Store(s.clock.Add(1))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries.Insert(key, fresh) == fresh {
		s.held.Add(fresh.bytes)
		s.sweep(key)
	}
}

// sweep evicts least recently used kernels, never the one under keep, until
// the store is down to the low water mark — if it is over its budget.
// Called with mu held.
func (s *KernelStore) sweep(keep string) {
	budget := int64(storeBudget)
	if s.budget > 0 {
		budget = s.budget
	}
	if s.held.Load() <= budget {
		return
	}
	entries := s.entries.Snapshot()
	var gone []string
	for _, key := range leastRecentFirst(entries, keep, func(it *storeItem) int64 { return it.used.Load() }) {
		if s.held.Load() <= lowWater(budget) {
			break
		}
		s.held.Add(-entries[key].bytes)
		gone = append(gone, key)
	}
	s.entries.Delete(gone...)
	s.evicted.Add(int64(len(gone)))
}

// Len returns the number of stored kernels.
func (s *KernelStore) Len() int {
	return len(s.entries.Snapshot())
}

// Stats returns a snapshot of the store counters.
func (s *KernelStore) Stats() KernelStoreStats {
	return KernelStoreStats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Kernels:   s.Len(),
		HeldBytes: s.held.Load(),
		Evicted:   s.evicted.Load(),
	}
}

// storeFileVersion versions the on-disk store format; Load rejects other
// versions rather than guessing. Version 1 filed kernels under keys each
// caller spelled its own way (a workload's name, a hash of the source text),
// which no lookup asks for since tuner.KernelSource.Key names every kernel:
// its entries could only miss.
const storeFileVersion = 2

// storeFile is the serialized form of a KernelStore.
type storeFile struct {
	Version int          `json:"version"`
	Kernels []storeEntry `json:"kernels"`
}

// storeEntry is one persisted kernel. TraceSHA256 is the hash of the
// Trace field's exact bytes, so Load can prove the trace survived the
// round trip before trusting it.
type storeEntry struct {
	Key        string          `json:"key"`
	KernelHash string          `json:"kernel_hash"`
	TraceSHA   string          `json:"trace_sha256"`
	Trace      json.RawMessage `json:"trace"`
}

// Save writes the store to path atomically (WriteFileAtomic), sorted
// by key for a deterministic file, and returns the number of kernels
// written. Each trace is stored with a content hash so a later Load can
// detect corruption. Hit/miss counters are not persisted — they describe
// one process's traffic, not the kernels.
//
// Save serializes one published snapshot: the entry map is immutable
// once published, so no lock is held while marshaling, and puts that
// land mid-save simply miss this file and make the next one.
func (s *KernelStore) Save(path string) (int, error) {
	snapshot := s.entries.Snapshot()
	keys := make([]string, 0, len(snapshot))
	for k := range snapshot {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := storeFile{Version: storeFileVersion}
	for _, k := range keys {
		e := snapshot[k]
		tb, err := e.Trace.Marshal()
		if err != nil {
			return 0, fmt.Errorf("replay: serializing kernel %q: %w", k, err)
		}
		sum := sha256.Sum256(tb)
		out.Kernels = append(out.Kernels, storeEntry{
			Key:        k,
			KernelHash: e.KernelHash,
			TraceSHA:   hex.EncodeToString(sum[:]),
			Trace:      tb,
		})
	}

	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return 0, err
	}
	b = append(b, '\n')
	if err := WriteFileAtomic(path, b); err != nil {
		return 0, err
	}
	return len(out.Kernels), nil
}

// Load merges the kernels persisted at path into the store and returns
// how many entries the file held. Every trace's bytes are validated
// against the stored content hash first; a mismatch fails the whole load
// (a store that cannot be trusted should not half-apply). A kernel's hash
// is the TraceKey of the trace just verified, whatever the file's
// kernel_hash field says. Existing keys keep their entries — the usual
// first-Put-wins rule — so loading a warm store under a live one never
// replaces traces sessions already use. A loaded kernel has not been used
// yet, so when the file holds more than the budget, loaded kernels are the
// first evicted.
func (s *KernelStore) Load(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var in storeFile
	if err := json.Unmarshal(b, &in); err != nil {
		return 0, fmt.Errorf("replay: kernel store %s: %w", path, err)
	}
	if in.Version != storeFileVersion {
		return 0, fmt.Errorf("replay: kernel store %s: version %d, want %d", path, in.Version, storeFileVersion)
	}
	loaded := make(map[string]*storeItem, len(in.Kernels))
	for _, e := range in.Kernels {
		// The store file is written indented, which reflows the embedded
		// trace; TraceSHA covers the canonical compact bytes.
		var compact bytes.Buffer
		if err := json.Compact(&compact, e.Trace); err != nil {
			return 0, fmt.Errorf("replay: kernel store %s: kernel %q: %w", path, e.Key, err)
		}
		e.Trace = compact.Bytes()
		sum := sha256.Sum256(e.Trace)
		if got := hex.EncodeToString(sum[:]); got != e.TraceSHA {
			return 0, fmt.Errorf("replay: kernel store %s: kernel %q trace hash mismatch (stored %.12s…, computed %.12s…)", path, e.Key, e.TraceSHA, got)
		}
		t, err := Unmarshal(e.Trace)
		if err != nil {
			return 0, fmt.Errorf("replay: kernel store %s: kernel %q: %w", path, e.Key, err)
		}
		loaded[e.Key] = &storeItem{KernelEntry: KernelEntry{Trace: t, KernelHash: TraceKey(t)}, bytes: t.size()}
	}
	n := len(loaded)
	s.mu.Lock()
	defer s.mu.Unlock()
	held := s.entries.Snapshot()
	for key, it := range loaded {
		if held[key] != nil {
			delete(loaded, key)
		} else {
			s.held.Add(it.bytes)
		}
	}
	s.entries.InsertAll(loaded)
	s.sweep("")
	return n, nil
}

// WriteFileAtomic replaces the file at path with data: the bytes go to a
// temporary file beside it, are synced to stable storage, and only then is
// the file renamed over path. A crash — of the process or of the machine —
// leaves the previous file or the new one, never a torn one, and a write
// that fails leaves the previous file untouched and no temporary behind.
func WriteFileAtomic(path string, data []byte) error {
	return writeAtomic(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// writeAtomic is WriteFileAtomic with the writing handed in, so a test can
// fail it part-way.
func writeAtomic(path string, write func(*os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
