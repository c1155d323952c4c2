package train

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/core"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

// testConfig returns a small-but-real pipeline configuration: the full
// 12-parameter space over down-sized default kernels on a small cluster.
func testConfig(seed int64) Config {
	c := cluster.CoriHaswell(1, 8)
	return Config{
		Cluster:         c,
		Kernels:         core.DefaultSweepKernels(c.Procs()),
		ExtraRandomRuns: 2,
		StopperEpochs:   2,
		PickerEpochs:    2,
		StopperHorizon:  8,
		Seed:            seed,
	}
}

// directSweep runs SweepPlan's run list by direct execution, serially, each
// run on a fresh simulated stack: the reference replaySweep is held to.
func directSweep(kernels []workload.Workload, c *cluster.Cluster, space []params.Parameter, seed int64, extraRandom int) (*core.SweepResult, error) {
	runs, err := core.SweepPlan(len(kernels), space, seed, extraRandom)
	if err != nil {
		return nil, err
	}
	out := &core.SweepResult{Space: space}
	for i, r := range runs {
		res, err := workload.Execute(kernels[r.Kernel], c, r.Assignment.Settings(), r.Seed)
		if err != nil {
			return nil, fmt.Errorf("sweep run %d (%s): %w", i, kernels[r.Kernel].Name(), err)
		}
		out.Features = append(out.Features, r.Assignment.Features())
		out.Perfs = append(out.Perfs, res.Perf)
	}
	return out, nil
}

// TestReplaySweepMatchesDirect pins the tentpole equivalence: the
// replay-backed parallel sweep produces the same observations as the
// direct-execution serial sweep — per-run perfs bit-identical, PCA impact
// scores equal within 1e-9 — on the three default kernels.
func TestReplaySweepMatchesDirect(t *testing.T) {
	cfg := testConfig(7)
	cfg.fillDefaults()
	cfg.Workers = 4

	direct, err := directSweep(cfg.Kernels, cfg.Cluster, cfg.Space, cfg.Seed+1, cfg.ExtraRandomRuns)
	if err != nil {
		t.Fatalf("direct sweep: %v", err)
	}
	replayed, _, err := replaySweep(context.Background(), &cfg)
	if err != nil {
		t.Fatalf("replay sweep: %v", err)
	}
	if len(replayed.Perfs) != len(direct.Perfs) {
		t.Fatalf("run counts differ: replay %d, direct %d", len(replayed.Perfs), len(direct.Perfs))
	}
	for i := range direct.Perfs {
		if replayed.Perfs[i] != direct.Perfs[i] {
			t.Fatalf("run %d perf: replay %v, direct %v", i, replayed.Perfs[i], direct.Perfs[i])
		}
	}
	ds, err := direct.ImpactScores()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := replayed.ImpactScores()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds {
		if diff := math.Abs(ds[i] - rs[i]); diff > 1e-9 {
			t.Fatalf("impact score %d differs by %g (direct %v, replay %v)", i, diff, ds[i], rs[i])
		}
	}
}

// TestReplaySweepWorkerIndependence pins that per-run seeds come from the
// plan, not worker scheduling: any worker count produces identical
// observations.
func TestReplaySweepWorkerIndependence(t *testing.T) {
	base := testConfig(11)
	base.fillDefaults()
	base.Kernels = base.Kernels[:1]

	serial := base
	serial.Workers = 1
	s1, _, err := replaySweep(context.Background(), &serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel := base
	parallel.Workers = 8
	s8, _, err := replaySweep(context.Background(), &parallel)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1.Perfs {
		if s1.Perfs[i] != s8.Perfs[i] {
			t.Fatalf("run %d: 1 worker %v, 8 workers %v", i, s1.Perfs[i], s8.Perfs[i])
		}
	}
}

// TestReplaySweepKernelStoreRoundTrip pins that a warmed store serves the
// sweep's kernels (no re-recording) with identical results, and that the
// store keys distinguish the custom-sized sweep kernels.
func TestReplaySweepKernelStoreRoundTrip(t *testing.T) {
	cfg := testConfig(3)
	cfg.fillDefaults()
	cfg.Kernels = cfg.Kernels[:2]
	cfg.Store = replay.NewKernelStore()

	cold, keys, err := replaySweep(context.Background(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Store.Len(); got != 2 {
		t.Fatalf("store holds %d kernels after cold sweep, want 2", got)
	}
	// The payload names each kernel by its trace's key.
	for i, w := range cfg.Kernels {
		ent, _ := cfg.Store.Get(tuner.KernelSource{Workload: w, Nprocs: cfg.Cluster.Procs()}.Key())
		if ent.Trace == nil || keys[i] != replay.TraceKey(ent.Trace) {
			t.Fatalf("kernel %d reported as %q, its stored trace keys %v", i, keys[i], ent.KernelHash)
		}
	}
	pre := cfg.Store.Stats()
	warm, _, err := replaySweep(context.Background(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	post := cfg.Store.Stats()
	if post.Hits != pre.Hits+2 {
		t.Fatalf("warm sweep hit the store %d times, want 2", post.Hits-pre.Hits)
	}
	for i := range cold.Perfs {
		if cold.Perfs[i] != warm.Perfs[i] {
			t.Fatalf("run %d: cold %v, warm %v", i, cold.Perfs[i], warm.Perfs[i])
		}
	}
	// Distinct workload configurations must get distinct keys.
	k1 := tuner.KernelSource{Workload: cfg.Kernels[0], Nprocs: cfg.Cluster.Procs()}.Key()
	v := workload.NewVPIC(cfg.Cluster.Procs())
	if k2 := (tuner.KernelSource{Workload: v, Nprocs: cfg.Cluster.Procs()}.Key()); k1 == k2 {
		t.Fatalf("sweep-sized and standard-sized VPIC share store key %q", k1)
	}
}

// TestPipelineResumeSkipsCompletedStages pins the resumability contract:
// a run killed after the sweep stage (simulated with Until) resumes
// without re-sweeping, and the resumed run's agent is byte-identical to a
// from-scratch run's.
func TestPipelineResumeSkipsCompletedStages(t *testing.T) {
	dir := t.TempDir()

	// From-scratch reference (no artifacts involved).
	ref := testConfig(5)
	refRes, err := Run(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}

	// First run dies after the sweep stage.
	cfg := testConfig(5)
	cfg.ArtifactsDir = dir
	cfg.Until = StageSweep
	partial, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Agent != nil {
		t.Fatal("partial run should not produce an agent")
	}
	if partial.StageReport(StageSweep).Skipped {
		t.Fatal("first run cannot skip the sweep")
	}
	if _, err := os.Stat(filepath.Join(dir, "sweep.json")); err != nil {
		t.Fatalf("sweep artifact missing: %v", err)
	}

	// Resumed run skips the sweep, trains the rest.
	cfg.Until = ""
	cfg.Resume = true
	resumed, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.StageReport(StageSweep).Skipped {
		t.Fatal("resumed run re-ran the sweep")
	}
	if resumed.StageReport(StagePicker).Skipped || resumed.StageReport(StageStopper).Skipped {
		t.Fatal("agent stages had no artifacts and must train")
	}

	refJSON, err := json.Marshal(refRes.Agent)
	if err != nil {
		t.Fatal(err)
	}
	resJSON, err := json.Marshal(resumed.Agent)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON, resJSON) {
		t.Fatal("resumed agent differs from from-scratch agent")
	}

	// A second resume skips everything.
	again, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range again.Stages {
		if !st.Skipped {
			t.Fatalf("stage %s re-ran on full resume", st.Stage)
		}
	}
	againJSON, err := json.Marshal(again.Agent)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON, againJSON) {
		t.Fatal("fully-resumed agent differs from from-scratch agent")
	}
}

// TestPipelineInputHashInvalidation pins that resume is keyed on content,
// not file presence: changing the seed invalidates the sweep artifact.
func TestPipelineInputHashInvalidation(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(5)
	cfg.Kernels = cfg.Kernels[:1]
	cfg.ArtifactsDir = dir
	cfg.Until = StageSweep
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	cfg.Seed = 6
	cfg.Resume = true
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StageReport(StageSweep).Skipped {
		t.Fatal("sweep artifact from a different seed was reused")
	}
}

// TestPipelineRejectsCorruptArtifact pins the content-hash validation: a
// tampered payload fails the envelope check and the stage re-runs.
func TestPipelineRejectsCorruptArtifact(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(9)
	cfg.Kernels = cfg.Kernels[:1]
	cfg.ArtifactsDir = dir
	cfg.Until = StageSweep
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "sweep.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Replace(b, []byte(`"perfs"`), []byte(`"perfz"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readArtifact(dir, StageSweep); err == nil {
		t.Fatal("tampered artifact passed validation")
	}
	cfg.Resume = true
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StageReport(StageSweep).Skipped {
		t.Fatal("tampered sweep artifact was reused")
	}
}

// TestPipelineCancellation pins that the sweep honors cancellation and
// that an aborted run leaves no artifact for the in-flight stage.
func TestPipelineCancellation(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(5)
	cfg.ArtifactsDir = dir
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cfg); err == nil {
		t.Fatal("canceled run reported success")
	}
	if _, err := os.Stat(filepath.Join(dir, "sweep.json")); !os.IsNotExist(err) {
		t.Fatalf("canceled run left a sweep artifact (stat err %v)", err)
	}
}

// TestPipelineUnknownStage pins Until validation.
func TestPipelineUnknownStage(t *testing.T) {
	cfg := testConfig(1)
	cfg.Until = "qlearning"
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("unknown Until stage accepted")
	}
}

// TestLoadAgentMatchesRunResult pins artifact serving: the agent
// assembled from the picker/stopper artifacts serializes identically to
// the agent the pipeline returned, and the combined agent.json is a
// loadable core.TunIO in the same form.
func TestLoadAgentMatchesRunResult(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(13)
	cfg.Kernels = cfg.Kernels[:1]
	cfg.ArtifactsDir = dir
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAgent(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res.Agent)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("artifact-loaded agent differs from the trained agent")
	}

	blob, err := os.ReadFile(filepath.Join(dir, agentFile))
	if err != nil {
		t.Fatal(err)
	}
	combined := &core.TunIO{Stopper: &core.EarlyStopper{}, Picker: &core.SmartPicker{}}
	if err := json.Unmarshal(blob, combined); err != nil {
		t.Fatalf("agent.json is not a loadable TunIO: %v", err)
	}
	cb, err := json.Marshal(combined)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, cb) {
		t.Fatal("agent.json round trip differs from the trained agent")
	}
}
