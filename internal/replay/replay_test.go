package replay

import (
	"bytes"
	"math"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/workload"
)

func noiselessCluster() *cluster.Cluster {
	c := cluster.CoriHaswell(2, 8)
	c.Noise = 0
	return c
}

func defaults() params.StackSettings {
	return params.DefaultAssignment(params.Space()).Settings()
}

func recordVPIC(t *testing.T) (*Trace, workload.RunResult) {
	t.Helper()
	c := noiselessCluster()
	w := workload.NewVPIC(c.Procs())
	w.ParticlesPerRank = 16 << 10
	w.Steps = 1
	w.ComputeFlops = 1e9
	st, err := workload.BuildStack(c, defaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := Record(w, st)
	if err != nil {
		t.Fatal(err)
	}
	perf, alpha := workload.Perf(st.Sim.Report)
	return trace, workload.RunResult{
		Runtime: st.Sim.Now(), Perf: perf, Alpha: alpha, Report: st.Sim.Report,
	}
}

func TestRecordCapturesPhases(t *testing.T) {
	trace, _ := recordVPIC(t)
	kinds := map[EventKind]int{}
	for _, ev := range trace.Events {
		kinds[ev.Kind]++
	}
	if kinds[EvCreateFile] != 1 || kinds[EvCloseFile] != 1 {
		t.Fatalf("file events = %v", kinds)
	}
	if kinds[EvCreateDataset] != 8 || kinds[EvWrite] != 8 {
		t.Fatalf("dataset/write events = %v, want 8 each (VPIC vars)", kinds)
	}
	if kinds[EvCompute] != 1 {
		t.Fatalf("compute events = %v", kinds)
	}
	if trace.Nprocs != 16 {
		t.Fatalf("nprocs = %d", trace.Nprocs)
	}
}

func TestReplayMatchesOriginalFootprintAndTime(t *testing.T) {
	trace, orig := recordVPIC(t)
	c := noiselessCluster()
	rep, err := workload.Execute(&Player{T: trace}, c, defaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	oa, ra := orig.Report.App(), rep.Report.App()
	if oa.BytesWritten != ra.BytesWritten || oa.WriteOps != ra.WriteOps {
		t.Fatalf("footprint differs: %d/%d vs %d/%d",
			ra.BytesWritten, ra.WriteOps, oa.BytesWritten, oa.WriteOps)
	}
	if rel := math.Abs(rep.Runtime-orig.Runtime) / orig.Runtime; rel > 0.02 {
		t.Fatalf("replay runtime differs by %.1f%%: %v vs %v", rel*100, rep.Runtime, orig.Runtime)
	}
}

func TestReplaySkipCompute(t *testing.T) {
	trace, orig := recordVPIC(t)
	c := noiselessCluster()
	rep, err := workload.Execute(&Player{T: trace, SkipCompute: true}, c, defaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runtime >= orig.Runtime {
		t.Fatalf("compute-stripped replay (%.3fs) not faster than original (%.3fs)",
			rep.Runtime, orig.Runtime)
	}
	if rep.Report.App().BytesWritten != orig.Report.App().BytesWritten {
		t.Fatal("compute stripping changed the I/O footprint")
	}
}

func TestReplayUnderDifferentTuningConfig(t *testing.T) {
	// The point of a trace kernel: evaluate other stack configurations.
	trace, _ := recordVPIC(t)
	c := noiselessCluster()
	tuned := params.DefaultAssignment(params.Space())
	tuned.SetIndex(params.StripingFactor, 9)
	tuned.SetIndex(params.CollectiveWrite, 1)
	tuned.SetIndex(params.CBNodes, 2)
	def, err := workload.Execute(&Player{T: trace}, c, defaults(), 2)
	if err != nil {
		t.Fatal(err)
	}
	tun, err := workload.Execute(&Player{T: trace}, c, tuned.Settings(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if tun.Perf <= def.Perf {
		t.Fatalf("tuned replay %.0f not above default %.0f", tun.Perf, def.Perf)
	}
}

func TestTraceSerializationRoundTrip(t *testing.T) {
	trace, _ := recordVPIC(t)
	blob, err := trace.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Events) != len(trace.Events) || restored.Nprocs != trace.Nprocs {
		t.Fatal("round trip lost events")
	}
	c := noiselessCluster()
	if _, err := workload.Execute(&Player{T: restored}, c, defaults(), 3); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsBadTrace(t *testing.T) {
	if _, err := Unmarshal([]byte(`{`)); err == nil {
		t.Fatal("garbage: want error")
	}
	if _, err := Unmarshal([]byte(`{"nprocs":0}`)); err == nil {
		t.Fatal("no nprocs: want error")
	}
}

func TestReplayProcsMismatchIsRejected(t *testing.T) {
	// The paper's §V-B argument: a trace is pinned to the configuration it
	// was recorded under; a different scale requires re-tracing.
	trace, _ := recordVPIC(t)
	bigger := cluster.CoriHaswell(4, 8)
	bigger.Noise = 0
	if _, err := workload.Execute(&Player{T: trace}, bigger, defaults(), 4); err == nil {
		t.Fatal("replay at a different scale: want error")
	}
}

func TestPlayerValidation(t *testing.T) {
	c := noiselessCluster()
	if _, err := workload.Execute(&Player{}, c, defaults(), 5); err == nil {
		t.Fatal("nil trace: want error")
	}
	bad := &Trace{Nprocs: c.Procs(), Events: []Event{{Kind: "bogus"}}}
	if _, err := workload.Execute(&Player{T: bad}, c, defaults(), 5); err == nil {
		t.Fatal("unknown event kind: want error")
	}
	orphanWrite := &Trace{Nprocs: c.Procs(), Events: []Event{{Kind: EvWrite, File: "f", Dataset: "d"}}}
	if _, err := workload.Execute(&Player{T: orphanWrite}, c, defaults(), 5); err == nil {
		t.Fatal("write without dataset: want error")
	}
	orphanClose := &Trace{Nprocs: c.Procs(), Events: []Event{{Kind: EvCloseFile, File: "f"}}}
	if _, err := workload.Execute(&Player{T: orphanClose}, c, defaults(), 5); err == nil {
		t.Fatal("close without open: want error")
	}
}

func TestRecordedChunkLayoutSurvivesReplay(t *testing.T) {
	c := noiselessCluster()
	w := workload.NewFLASH(c.Procs())
	w.BlocksPerRank = 8
	w.Unknowns = 2
	st, err := workload.BuildStack(c, defaults(), 6)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := Record(w, st)
	if err != nil {
		t.Fatal(err)
	}
	foundChunk := false
	for _, ev := range trace.Events {
		if ev.Kind == EvCreateDataset && len(ev.Chunk) == 4 {
			foundChunk = true
		}
	}
	if !foundChunk {
		t.Fatal("chunk layout not recorded")
	}
	rep, err := workload.Execute(&Player{T: trace}, c, defaults(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Report.App().BytesWritten != st.Sim.Report.App().BytesWritten {
		t.Fatal("chunked replay footprint differs")
	}
}

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

// A live recording does not depend on its seed: a trace captures what the
// application issues, not how the hardware times it. (A job records on a
// planning library, which has no seed; internal/tuner's
// TestRecordingNeedsNoMachine holds the two recordings equal.)
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
