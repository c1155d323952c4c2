// Package tunio is an AI-powered framework for optimizing HPC I/O: a Go
// reproduction of "TunIO: An AI-powered Framework for Optimizing HPC I/O"
// (IPDPS 2024).
//
// TunIO attaches three optimizations to any I/O tuning pipeline:
//
//   - Application I/O Discovery (DiscoverIO): reduce application source to
//     an I/O kernel so objective evaluations run only the statements that
//     matter to I/O, optionally with loop reduction and I/O path switching;
//   - Smart Configuration Generation (TunIO.SubsetPicker): an RL agent
//     that selects the high-impact parameter subset to tune each iteration;
//   - Early Stopping (TunIO.Stop): an RL agent that ends tuning when
//     further investment stops paying off.
//
// The package also ships everything those components need to be exercised
// end to end without a supercomputer: a simulated HDF5/MPI-IO/Lustre
// stack, the paper's workloads (VPIC, HACC, FLASH, BD-CATS, MACSio), an
// HSTuner-style genetic tuning pipeline, and a benchmark harness that
// regenerates every figure and table of the paper's evaluation.
//
// Quick start:
//
//	agent, err := tunio.Train(tunio.TrainConfig{Seed: 1})
//	if err != nil { ... }
//	res, err := tunio.Tune(tunio.TuneOptions{
//		Workload: "flash",
//		Agent:    agent,
//		Seed:     1,
//	})
//	fmt.Printf("tuned %s: %.0f MB/s after %d iterations (%.0f minutes)\n",
//		"flash", res.BestPerf, res.StoppedAt, res.Curve.TotalMinutes())
//
// For long-lived processes serving many tuning sessions — the tuniod
// server, or any embedder — construct an Engine instead: it runs sessions
// concurrently over one shared bounded worker pool and shares the
// content-addressed kernel store and stage cache across sessions, so
// repeat kernels skip recording and hit cached stage plans. Tune is a
// thin shim over a private single-use Engine:
//
//	eng := tunio.NewEngine(tunio.EngineOptions{Workers: 8})
//	run, err := eng.Tune(ctx, tunio.JobSpec{Workload: "vpic", Seed: 1, Parallelism: 4})
//	for p := range run.Events(ctx) { ... }  // stream the curve
//	res, err := run.Wait()
package tunio

import (
	"context"

	"tunio/internal/core"
	"tunio/internal/discovery"
	"tunio/internal/metrics"
	"tunio/internal/params"
	"tunio/internal/train"
	"tunio/internal/tuner"
)

// Re-exported component types (Table I of the paper, plus the engine
// surface).
type (
	// TunIO bundles the trained Early Stopping and Smart Configuration
	// Generation agents.
	TunIO = core.TunIO
	// TrainConfig configures offline training.
	TrainConfig = core.TrainConfig
	// DiscoveryOptions configure Application I/O Discovery.
	DiscoveryOptions = discovery.Options
	// Kernel is a discovered I/O kernel.
	Kernel = discovery.Kernel
	// Curve is a tuning trajectory with RoTI accessors.
	Curve = metrics.Curve
	// Point is one tuning-iteration observation on a Curve.
	Point = metrics.Point
	// Parameter is one tunable I/O-stack knob.
	Parameter = params.Parameter
	// Result is a tuning-pipeline outcome. Result.EngineInfo reports what
	// the evaluation engine scored the run on (kernel hash, §III-B
	// recovery, cache traffic).
	Result = tuner.Result
	// EngineInfo is the evaluation-engine report attached to Result.
	EngineInfo = tuner.EngineInfo
	// Refinement refines a configuration interactively across tuning
	// rounds (§VI of the paper): successive RefineBatch rounds resume
	// from the best configuration found so far while the agents keep
	// learning.
	Refinement = core.Session
)

// NewRefinement starts an interactive refinement (§VI of the paper):
// successive RefineBatch rounds resume from the best configuration found
// so far while the agents keep learning.
func NewRefinement(agent *TunIO, space []Parameter) (*Refinement, error) {
	return core.NewSession(agent, space)
}

// Train performs TunIO's offline training: a parameter sweep on the
// representative kernels plus PCA for the subset picker, and synthetic
// log-curve episodes for the early stopper.
//
// Training runs through the staged pipeline (package internal/train): the
// sweep is scored by parallel trace replay and each stage trains from an
// independent seed stream. The result is deterministic for a given
// TrainConfig and independent of worker count. To persist and resume
// training across processes, use the tuniotrain command and
// LoadAgentArtifacts.
func Train(cfg TrainConfig) (*TunIO, error) {
	return train.Train(train.Config{
		Space:           cfg.Space,
		Cluster:         cfg.Cluster,
		Kernels:         cfg.Kernels,
		ExtraRandomRuns: cfg.ExtraRandomRuns,
		StopperEpochs:   cfg.StopperEpochs,
		PickerEpochs:    cfg.PickerEpochs,
		StopperHorizon:  cfg.StopperHorizon,
		Seed:            cfg.Seed,
	})
}

// LoadAgentArtifacts assembles a trained TunIO from a tuniotrain
// artifacts directory (the picker and stopper stage artifacts written by
// `tuniotrain -artifacts dir`). The loaded agent is byte-identical, as
// JSON, to the agent the training run returned in memory.
func LoadAgentArtifacts(dir string) (*TunIO, error) {
	return train.LoadAgent(dir)
}

// DiscoverIO reduces application source code to its I/O kernel.
func DiscoverIO(sourceCode string, options DiscoveryOptions) (*Kernel, error) {
	return core.DiscoverIO(sourceCode, options)
}

// ParameterSpace returns the 12-parameter HDF5/MPI-IO/Lustre tuning space
// used throughout the paper's evaluation.
func ParameterSpace() []Parameter {
	return params.Space()
}

// TuneOptions configure a full tuning run on the simulated stack.
type TuneOptions struct {
	// Workload is one of "vpic", "hacc", "flash", "bdcats", "macsio",
	// "ior".
	Workload string
	// Nodes/ProcsPerNode size the simulated allocation (default 4x32).
	Nodes        int
	ProcsPerNode int
	// Agent attaches TunIO's RL components; nil runs the plain HSTuner
	// pipeline (all parameters, no early stopping).
	Agent *TunIO
	// Heuristic attaches the 5%/5-iteration heuristic stopper instead of
	// the RL stopper (mutually exclusive with Agent's stopper).
	Heuristic bool
	// PopSize and MaxIterations bound the genetic pipeline (default 16/50).
	PopSize       int
	MaxIterations int
	// Reps is the number of runs averaged per evaluation (default 3).
	Reps int
	// Seed drives the whole run.
	Seed int64

	// Context, when non-nil, cancels the run between evaluations; Tune
	// then returns an error wrapping ctx.Err(). Nil means no deadline.
	Context context.Context
	// Parallelism is the number of evaluation workers (0 = GOMAXPROCS,
	// 1 = one at a time). It only schedules: every genome is scored by
	// staged trace replay — the workload runs once to record its I/O
	// trace, every configuration replays it through
	// parameter-projection-cached stage plans — with a seed derived from
	// (Seed, iteration, genome), and repeated genomes are memoized, so the
	// curve is the same for every value.
	Parallelism int
	// Progress, when non-nil, receives each curve point as the
	// corresponding iteration completes.
	Progress func(metrics.Point)
}

// Tune runs a tuning pipeline over the simulated I/O stack and returns
// its result (curve, best configuration, stopping iteration).
//
// Tune is a synchronous shim over a private single-use Engine: each call
// gets fresh caches, so two Tune calls share nothing. Long-lived
// processes that tune repeatedly should hold one Engine and call
// Engine.Tune, which shares the kernel store and stage cache across
// sessions.
func Tune(opts TuneOptions) (*Result, error) {
	run, err := NewEngine(EngineOptions{}).Tune(opts.Context, JobSpec{
		Workload:      opts.Workload,
		Nodes:         opts.Nodes,
		ProcsPerNode:  opts.ProcsPerNode,
		Agent:         opts.Agent,
		Heuristic:     opts.Heuristic,
		PopSize:       opts.PopSize,
		MaxIterations: opts.MaxIterations,
		Reps:          opts.Reps,
		Seed:          opts.Seed,
		Parallelism:   opts.Parallelism,
		Progress:      opts.Progress,
	})
	if err != nil {
		return nil, err
	}
	return run.Wait()
}
