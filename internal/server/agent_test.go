package server_test

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"

	"tunio"
	"tunio/internal/cluster"
	"tunio/internal/core"
	"tunio/internal/server"
	"tunio/internal/train"
)

// smallTrainConfig is a fast-but-real training scale shared by the
// artifact and lazy paths below.
func smallTrainConfig(seed int64) tunio.TrainConfig {
	c := cluster.CoriHaswell(1, 8)
	return tunio.TrainConfig{
		Cluster:         c,
		Kernels:         core.DefaultSweepKernels(c.Procs()),
		ExtraRandomRuns: 2,
		StopperEpochs:   2,
		PickerEpochs:    2,
		StopperHorizon:  8,
		Seed:            seed,
	}
}

func newAgentServer(t *testing.T, opts server.Options) *httptest.Server {
	t.Helper()
	opts.Engine = tunio.NewEngine(tunio.EngineOptions{})
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// A tuniod started from pre-trained artifacts must serve curves
// bit-identical to the lazily-training path: loading an agent is a pure
// deserialization of the same trained state, never a retrain drift.
func TestServerArtifactAgentMatchesLazyTraining(t *testing.T) {
	tc := smallTrainConfig(5)

	// Train once through the pipeline, persisting artifacts.
	dir := t.TempDir()
	_, err := train.Run(context.Background(), train.Config{
		Space:           tc.Space,
		Cluster:         tc.Cluster,
		Kernels:         tc.Kernels,
		ExtraRandomRuns: tc.ExtraRandomRuns,
		StopperEpochs:   tc.StopperEpochs,
		PickerEpochs:    tc.PickerEpochs,
		StopperHorizon:  tc.StopperHorizon,
		Seed:            tc.Seed,
		ArtifactsDir:    dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := tunio.LoadAgentArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}

	fromArtifacts := newAgentServer(t, server.Options{Agent: agent})
	lazy := newAgentServer(t, server.Options{Train: &tc})

	req := tinyJob(9)
	req.Pipeline = "tunio"
	var results [2]*server.JobResult
	for i, ts := range []*httptest.Server{fromArtifacts, lazy} {
		st, resp := submit(t, ts, req, "")
		if resp.StatusCode != 202 {
			t.Fatalf("server %d: submit = %d", i, resp.StatusCode)
		}
		final := waitTerminal(t, ts, st.ID)
		if final.State != "done" {
			t.Fatalf("server %d: job ended %q: %s", i, final.State, final.Error)
		}
		results[i] = final.Result
	}

	a, err := json.Marshal(results[0].Curve)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(results[1].Curve)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("artifact-served curve differs from lazily-trained curve:\n%s\n%s", a, b)
	}
	if results[0].BestPerf != results[1].BestPerf || results[0].StoppedAt != results[1].StoppedAt {
		t.Fatalf("artifact-served result differs: best %v vs %v, stopped %d vs %d",
			results[0].BestPerf, results[1].BestPerf, results[0].StoppedAt, results[1].StoppedAt)
	}
}

// A job is handed a copy of the served agent, not a decode of its
// serialized form; the copy must be that decode. One job runs through the
// library on an agent loaded from JSON — what every job got before — and
// the same job through two servers: one given the trained agent itself
// (optimizer moments, a full replay buffer and a spent exploration stream
// attached, none of which a copy may carry), one given the loaded agent.
// Every point of the three curves agrees to the bit, and a second job on
// each server sees an agent the first job's online learning did not touch.
func TestServedAgentCopyIsTheLoadedAgent(t *testing.T) {
	trained, err := tunio.Train(smallTrainConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(trained)
	if err != nil {
		t.Fatal(err)
	}
	load := func() *tunio.TunIO {
		a := &tunio.TunIO{Stopper: &core.EarlyStopper{}, Picker: &core.SmartPicker{}}
		if err := json.Unmarshal(blob, a); err != nil {
			t.Fatal(err)
		}
		return a
	}

	req := tinyJob(9)
	req.Pipeline = "tunio"
	ref, err := tunio.Tune(tunio.TuneOptions{
		Workload: req.Workload, Nodes: req.Nodes, ProcsPerNode: req.ProcsPerNode,
		PopSize: req.PopSize, MaxIterations: req.MaxIterations, Reps: req.Reps,
		Seed: req.Seed, Parallelism: req.Parallelism, Agent: load(),
	})
	if err != nil {
		t.Fatal(err)
	}

	for name, agent := range map[string]*tunio.TunIO{"trained": trained, "loaded": load()} {
		ts := newAgentServer(t, server.Options{Agent: agent})
		for round := 0; round < 2; round++ {
			st, resp := submit(t, ts, req, "")
			if resp.StatusCode != 202 {
				t.Fatalf("%s agent, job %d: submit = %d", name, round, resp.StatusCode)
			}
			final := waitTerminal(t, ts, st.ID)
			if final.State != "done" {
				t.Fatalf("%s agent, job %d ended %q: %s", name, round, final.State, final.Error)
			}
			got := final.Result.Curve
			if len(got) != len(ref.Curve) {
				t.Fatalf("%s agent, job %d: %d curve points, the loaded agent's run has %d", name, round, len(got), len(ref.Curve))
			}
			for i, p := range ref.Curve {
				if got[i].Iteration != p.Iteration ||
					math.Float64bits(got[i].TimeMinutes) != math.Float64bits(p.TimeMinutes) ||
					math.Float64bits(got[i].IterPerf) != math.Float64bits(p.IterPerf) ||
					math.Float64bits(got[i].BestPerf) != math.Float64bits(p.BestPerf) {
					t.Fatalf("%s agent, job %d, point %d: served %+v, the loaded agent's run %+v", name, round, i, got[i], p)
				}
			}
		}
	}
}
