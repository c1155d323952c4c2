package replay

import (
	"fmt"
	"strings"
	"testing"

	"tunio/internal/analysis"
	"tunio/internal/cinterp"
	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// fixtureTrace records one built-in workload's trace under the default
// configuration and returns it with the kernel's concrete signature.
func fixtureTrace(t *testing.T, name string) (*Trace, *analysis.ConcreteSignature) {
	t.Helper()
	c := cluster.CoriHaswell(2, 8)
	w, err := workload.ByName(name, c.Procs())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	cs, ok := w.(workload.HasCSource)
	if !ok {
		t.Fatalf("%s: workload has no C source", name)
	}
	prog, err := csrc.Parse(cs.CSource())
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	sig := analysis.ComputeSignature(prog, analysis.SignatureOptions{})
	if !sig.Exact {
		t.Fatalf("%s: signature inexact: %s", name, sig.Reason)
	}
	st, err := workload.BuildStack(c, params.DefaultAssignment(params.Space()).Settings(), 1)
	if err != nil {
		t.Fatalf("%s: stack: %v", name, err)
	}
	trace, err := RecordFunc(st, func(st *workload.Stack) error {
		_, err := cinterp.Run(prog, st.Lib)
		return err
	})
	if err != nil {
		t.Fatalf("%s: record: %v", name, err)
	}
	conc, err := sig.Concrete(map[string]int64{"nprocs": int64(trace.Nprocs)})
	if err != nil {
		t.Fatalf("%s: concrete: %v", name, err)
	}
	return trace, conc
}

// TestReplayRecordsItsOwnTrace re-records a replay: the recorder hears of
// compute and barrier phases from the library, whoever drives it — an
// interpreted kernel or the trace walker — so the trace of a replay is the
// trace. When the recorder listened on the simulation instead, the walker's
// barriers went past it.
func TestReplayRecordsItsOwnTrace(t *testing.T) {
	trace, _ := fixtureTrace(t, "vpic")
	st, err := workload.BuildStack(cluster.CoriHaswell(2, 8), params.DefaultAssignment(params.Space()).Settings(), 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Record(&Player{T: trace}, st)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := TraceKey(again), TraceKey(trace); got != want {
		t.Errorf("re-recorded replay is %s (%d events), the trace %s (%d events)", got, len(again.Events), want, len(trace.Events))
	}
}

// TestCrossValidateFixtures is the tentpole oracle: on every built-in
// fixture workload, the statically derived signature at default
// parameters must exactly match the recorded trace — event counts and
// byte totals with no tolerance.
func TestCrossValidateFixtures(t *testing.T) {
	for _, name := range []string{"vpic", "flash", "hacc", "macsio", "bdcats"} {
		t.Run(name, func(t *testing.T) {
			trace, conc := fixtureTrace(t, name)
			if err := CrossValidate(trace, conc); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		})
	}
}

// TestCrossValidateCorruptedSlab corrupts one write event's slab in
// memory and checks the mismatch is reported with the offending event's
// index — not a panic, not a pass.
func TestCrossValidateCorruptedSlab(t *testing.T) {
	trace, conc := fixtureTrace(t, "vpic")
	idx := -1
	for i, ev := range trace.Events {
		if ev.Kind == EvWrite && len(ev.Slabs) > 0 && len(ev.Slabs[0].Count) > 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no write event with slabs in the vpic trace")
	}
	trace.Events[idx].Slabs[0].Count[0]++
	err := CrossValidate(trace, conc)
	if err == nil {
		t.Fatal("corrupted trace passed cross-validation")
	}
	if want := fmt.Sprintf("event %d", idx); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the offending %s", err, want)
	}
}

// TestCrossValidateDroppedEvent removes one event and checks the count
// mismatch is reported.
func TestCrossValidateDroppedEvent(t *testing.T) {
	trace, conc := fixtureTrace(t, "flash")
	idx := -1
	for i, ev := range trace.Events {
		if ev.Kind == EvCreateFile {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no create-file event in the flash trace")
	}
	trace.Events = append(trace.Events[:idx], trace.Events[idx+1:]...)
	err := CrossValidate(trace, conc)
	if err == nil {
		t.Fatal("trace with a dropped event passed cross-validation")
	}
	if !strings.Contains(err.Error(), "create_file") && !strings.Contains(err.Error(), string(EvCreateFile)) {
		t.Errorf("error %q does not name the miscounted event kind", err)
	}
}

// TestCrossValidateExtraEvent duplicates a write event: the duplicate
// must fail the transfer budget with its own index.
func TestCrossValidateExtraEvent(t *testing.T) {
	trace, conc := fixtureTrace(t, "hacc")
	idx := -1
	for i, ev := range trace.Events {
		if ev.Kind == EvWrite {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no write event in the hacc trace")
	}
	trace.Events = append(trace.Events, trace.Events[idx])
	if err := CrossValidate(trace, conc); err == nil {
		t.Fatal("trace with a duplicated write passed cross-validation")
	}
}

// TestCrossValidateNil checks the degenerate inputs error instead of
// panicking.
func TestCrossValidateNil(t *testing.T) {
	if err := CrossValidate(nil, nil); err == nil {
		t.Error("nil trace and signature passed cross-validation")
	}
	trace, conc := fixtureTrace(t, "bdcats")
	if err := CrossValidate(trace, nil); err == nil {
		t.Error("nil signature passed cross-validation")
	}
	if err := CrossValidate(nil, conc); err == nil {
		t.Error("nil trace passed cross-validation")
	}
}
