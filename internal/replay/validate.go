package replay

// validate.go cross-checks a recorded trace against the static I/O
// signature of the kernel that produced it. The signature is derived
// without running anything, so agreement between the two is a standing
// oracle: a mismatch means the tracer, the interpreter, or the signature
// walker diverged, and the error names the first offending event.

import (
	"fmt"
	"sort"

	"tunio/internal/analysis"
)

// sigEventKind maps signature op names to the trace event kind each call
// produces when the interpreter merges the ranks' calls (one event per
// collective call site; MPI_Init/Finalize/Barrier all surface as
// barriers).
var sigEventKind = map[string]EventKind{
	"H5Fcreate": EvCreateFile, "H5Fopen": EvOpenFile, "H5Fclose": EvCloseFile,
	"H5Dcreate": EvCreateDataset, "H5Dopen": EvOpenDataset,
	"H5Gcreate": EvCreateGroup, "H5Acreate": EvAttribute,
	"MPI_Init": EvBarrier, "MPI_Finalize": EvBarrier, "MPI_Barrier": EvBarrier,
	"compute_flops": EvCompute, "H5Dwrite": EvWrite, "H5Dread": EvRead,
}

// CrossValidate checks that a recorded trace exactly matches a concrete
// signature: per-kind event counts, per-event transfer byte sizes, and
// total bytes moved. It returns nil on an exact match and a descriptive
// error naming the first offending event (or the unmet remainder)
// otherwise.
func CrossValidate(t *Trace, sig *analysis.ConcreteSignature) error {
	if t == nil || sig == nil {
		return fmt.Errorf("replay: nil trace or signature")
	}
	want := map[EventKind]int64{}
	for op, n := range sig.Ops {
		kind, ok := sigEventKind[op]
		if !ok {
			return fmt.Errorf("replay: signature op %s has no trace event mapping", op)
		}
		want[kind] += n
	}
	// Transfer sites become a budget multiset keyed by (direction, bytes
	// per event); every trace transfer must consume a matching budget
	// entry.
	type budgetKey struct {
		kind  EventKind
		bytes int64
	}
	budget := map[budgetKey]int64{}
	for _, tr := range sig.Transfers {
		kind := EvRead
		if tr.Write {
			kind = EvWrite
		}
		budget[budgetKey{kind, tr.Bytes}] += tr.Count
	}

	got := map[EventKind]int64{}
	elem := map[string]int64{}
	var gotWritten, gotRead int64
	for i, ev := range t.Events {
		got[ev.Kind]++
		switch ev.Kind {
		case EvCreateDataset:
			e := ev.Elem
			if e == 0 {
				e = 8
			}
			elem[ev.File+"\x00"+ev.Dataset] = e
		case EvWrite, EvRead:
			e := elem[ev.File+"\x00"+ev.Dataset]
			if e == 0 {
				e = 8
			}
			var bytes int64
			for _, sl := range ev.Slabs {
				n := int64(1)
				for _, c := range sl.Count {
					n *= c
				}
				bytes += n * e
			}
			k := budgetKey{ev.Kind, bytes}
			if budget[k] <= 0 {
				return fmt.Errorf("replay: event %d: %s of %d bytes is not predicted by the signature", i, ev.Kind, bytes)
			}
			budget[k]--
			if ev.Kind == EvWrite {
				gotWritten += bytes
			} else {
				gotRead += bytes
			}
		}
	}

	kinds := map[EventKind]bool{}
	for k := range want {
		kinds[k] = true
	}
	for k := range got {
		kinds[k] = true
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, string(k))
	}
	sort.Strings(names)
	for _, name := range names {
		k := EventKind(name)
		if want[k] != got[k] {
			return fmt.Errorf("replay: trace has %d %s event(s), signature predicts %d", got[k], k, want[k])
		}
	}
	for k, n := range budget {
		if n != 0 {
			return fmt.Errorf("replay: signature predicts %d more %s transfer(s) of %d bytes than the trace contains", n, k.kind, k.bytes)
		}
	}
	if gotWritten != sig.BytesWritten {
		return fmt.Errorf("replay: trace writes %d bytes, signature predicts %d", gotWritten, sig.BytesWritten)
	}
	if gotRead != sig.BytesRead {
		return fmt.Errorf("replay: trace reads %d bytes, signature predicts %d", gotRead, sig.BytesRead)
	}
	return nil
}
