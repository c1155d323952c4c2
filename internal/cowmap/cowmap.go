// Package cowmap is the one copy-on-write map behind every shared table in
// this repository: a kernel's stage artifacts, the kernel store, the genome
// memo, a wire plan's per-layout slot arrays.
//
// Those tables are read on every evaluation and written a handful of times
// per kernel, and their entries never change while present (artifacts are
// pure functions of their keys): a table that forgets drops an entry whole.
// So a reader pays one atomic load for an immutable map and indexes it
// itself — which keeps the allocation-free m[string(scratch)] form available
// to callers whose keys live in a stack buffer; sync.Map's Load(any) would
// box that key on every hit — while a writer clones the map under a mutex,
// changes the clone and publishes it.
package cowmap

import (
	"sync"
	"sync/atomic"
)

// Map is a copy-on-write map in which the first writer of a key wins. The
// zero value is an empty map ready for use; a Map must not be copied after
// first use. Safe for concurrent use.
type Map[K comparable, V any] struct {
	mu sync.Mutex // serializes writers; readers never take it
	m  atomic.Pointer[map[K]V]
}

// Snapshot returns the map as last published: immutable, so it may be
// indexed, ranged over and kept for as long as the caller likes, and must
// not be written. Lock-free and allocation-free. An insert that returns
// after Snapshot was called is not in it.
func (c *Map[K, V]) Snapshot() map[K]V {
	if p := c.m.Load(); p != nil {
		return *p
	}
	return nil
}

// Insert publishes k→v unless k is already present, and returns the value
// now under k: v, or what an earlier writer put there.
func (c *Map[K, V]) Insert(k K, v V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.Snapshot()
	if held, ok := old[k]; ok {
		return held
	}
	next := clone(old, 1)
	next[k] = v
	c.m.Store(&next)
	return v
}

// InsertAll publishes every entry of kv whose key is not already present
// (present keys keep their values) in one step: a snapshot shows all of
// them or none.
func (c *Map[K, V]) InsertAll(kv map[K]V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := clone(c.Snapshot(), len(kv))
	for k, v := range kv {
		if _, held := next[k]; !held {
			next[k] = v
		}
	}
	c.m.Store(&next)
}

// Delete removes every key of keys in one step — a snapshot shows all of
// them gone or none — and leaves the map as it was when none is present.
// Snapshots taken before keep every entry they held.
func (c *Map[K, V]) Delete(keys ...K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.Snapshot()
	next := clone(old, 0)
	for _, k := range keys {
		delete(next, k)
	}
	if len(next) != len(old) {
		c.m.Store(&next)
	}
}

// clone copies a published map into a fresh one with room for extra more
// entries: the price of a write, bounded by the size of this one map.
func clone[K comparable, V any](old map[K]V, extra int) map[K]V {
	next := make(map[K]V, len(old)+extra)
	for k, v := range old {
		next[k] = v
	}
	return next
}
