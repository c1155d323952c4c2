package cowmap

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// The zero Map is empty and readable.
func TestZeroValue(t *testing.T) {
	var m Map[string, int]
	if s := m.Snapshot(); len(s) != 0 {
		t.Fatalf("zero map holds %v", s)
	}
	if _, ok := m.Snapshot()["x"]; ok {
		t.Fatal("zero map answered a key")
	}
}

// Eight goroutines insert their own value under each of a few keys: every
// caller is told the same winner per key, and that is the value the map
// keeps. Runs under -race in CI.
func TestInsertFirstWriterWins(t *testing.T) {
	const goroutines, keys = 8, 16
	var m Map[string, int]
	saw := make([][keys]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				// stagger the key order so every key is contended
				k := (k + g) % keys
				saw[g][k] = m.Insert(fmt.Sprint("key", k), g)
				if v, ok := m.Snapshot()[fmt.Sprint("key", k)]; !ok || v != saw[g][k] {
					t.Errorf("goroutine %d key %d: snapshot after Insert holds %v/%v, Insert returned %d", g, k, v, ok, saw[g][k])
				}
			}
		}(g)
	}
	wg.Wait()
	final := m.Snapshot()
	if len(final) != keys {
		t.Fatalf("%d keys held, want %d", len(final), keys)
	}
	for k := 0; k < keys; k++ {
		for g := 0; g < goroutines; g++ {
			if saw[g][k] != final[fmt.Sprint("key", k)] {
				t.Errorf("key %d: goroutine %d was told %d, the map holds %d", k, g, saw[g][k], final[fmt.Sprint("key", k)])
			}
		}
	}
}

// A snapshot is immutable: inserts that come after it never show in it.
func TestSnapshotNeverShowsLaterInserts(t *testing.T) {
	var m Map[int, string]
	m.Insert(1, "one")
	before := m.Snapshot()
	m.Insert(2, "two")
	m.InsertAll(map[int]string{3: "three"})
	if len(before) != 1 || before[1] != "one" {
		t.Fatalf("snapshot taken before the inserts now reads %v", before)
	}
	if after := m.Snapshot(); len(after) != 3 {
		t.Fatalf("current snapshot %v, want 3 entries", after)
	}
}

// InsertAll adds the absent keys and leaves present ones alone.
func TestInsertAllKeepsExistingKeys(t *testing.T) {
	var m Map[string, int]
	m.Insert("held", 1)
	m.InsertAll(map[string]int{"held": 2, "new": 3})
	m.InsertAll(nil)
	if s := m.Snapshot(); len(s) != 2 || s["held"] != 1 || s["new"] != 3 {
		t.Fatalf("after InsertAll: %v, want held=1 new=3", s)
	}
}

// Delete drops the keys named and nothing else, in one publication: a
// snapshot taken before it still holds every entry, a key never present is
// ignored, and a deleted key can be inserted afresh.
func TestDeleteLeavesEarlierSnapshots(t *testing.T) {
	var m Map[int, string]
	m.Delete(1) // the zero map has nothing to delete
	m.InsertAll(map[int]string{1: "one", 2: "two", 3: "three"})
	before := m.Snapshot()
	m.Delete(1, 3, 99)
	if len(before) != 3 || before[1] != "one" || before[3] != "three" {
		t.Fatalf("snapshot taken before the delete now reads %v", before)
	}
	if after := m.Snapshot(); len(after) != 1 || after[2] != "two" {
		t.Fatalf("after Delete(1, 3, 99): %v, want only 2", after)
	}
	unchanged := m.Snapshot()
	m.Delete(99)
	if mapID(m.Snapshot()) != mapID(unchanged) {
		t.Fatal("deleting an absent key republished the map")
	}
	if got := m.Insert(1, "uno"); got != "uno" {
		t.Fatalf("re-inserting a deleted key returned %q, want the new value", got)
	}
}

// Writers insert and delete overlapping keys while readers range over
// snapshots: an entry, while present, always holds the one value every
// writer inserts under its key, and a snapshot never changes under its
// reader. Runs under -race in CI.
func TestDeleteRacesInsertAndSnapshot(t *testing.T) {
	const writers, readers, keys, rounds = 4, 4, 16, 200
	var m Map[int, int]
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (i*7 + w) % keys
				m.Insert(k, 10*k)
				m.Delete(k, (k+1)%keys)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := m.Snapshot()
				n := len(s)
				for k, v := range s {
					if v != 10*k {
						t.Errorf("key %d holds %d, want %d", k, v, 10*k)
						return
					}
				}
				if len(s) != n {
					t.Error("a snapshot changed while it was read")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// mapID identifies a published map: snapshots of an unchanged Map are the
// same map.
func mapID[K comparable, V any](m map[K]V) uintptr { return reflect.ValueOf(m).Pointer() }
