package tuner

import (
	"testing"

	"tunio/internal/cinterp"
	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// The two evaluators in this file are the live-run reference: they score
// a configuration by actually running the kernel — the workload model, or
// the interpreted C program — on a freshly built stack, once per rep.
// They live in a test file because only this package's bit-identity tests
// and benchmarks call them: TraceEvaluator must return exactly what they
// return, seeded the same way (SeedFor, then +7919 per rep), averaged in
// the same order.

// SeededWorkloadEvaluator runs a workload model live. Perf is averaged
// rep by rep (each rep's perf divided by Reps, then summed) and the runtime
// summed before it is converted to minutes — executeAveraged's order,
// which TraceEvaluator reproduces for workload kernels.
type SeededWorkloadEvaluator struct {
	Workload workload.Workload
	Cluster  *cluster.Cluster
	Reps     int   // default 3
	Seed     int64 // base seed; evaluation seeds derive from it
}

// Evaluate is an EvalFunc. It is safe for concurrent use: each call
// builds fresh simulated stacks and touches no shared state.
func (e *SeededWorkloadEvaluator) Evaluate(a *params.Assignment, iteration int) (float64, float64, error) {
	reps := e.Reps
	if reps == 0 {
		reps = 3
	}
	seed := SeedFor(e.Seed, iteration, a)
	res, err := executeAveraged(e.Workload, e.Cluster, a.Settings(), seed, reps)
	if err != nil {
		return 0, 0, err
	}
	return res.Perf, res.Runtime / 60, nil
}

// SeededCSourceEvaluator interprets a C program (a full application or a
// discovered I/O kernel) SPMD, live. Perf is summed and then divided,
// minutes accumulate per rep — the order TraceEvaluator reproduces for
// interpreted kernels.
type SeededCSourceEvaluator struct {
	Prog    *csrc.File
	Cluster *cluster.Cluster
	Reps    int   // default 3
	Seed    int64 // base seed
}

// Evaluate is an EvalFunc. It is safe for concurrent use: the interpreter
// never mutates the program and every rep builds a fresh stack.
func (e *SeededCSourceEvaluator) Evaluate(a *params.Assignment, iteration int) (float64, float64, error) {
	reps := e.Reps
	if reps == 0 {
		reps = 3
	}
	base := SeedFor(e.Seed, iteration, a)
	var perfSum, minutes float64
	for r := 0; r < reps; r++ {
		st, err := workload.BuildStack(e.Cluster, a.Settings(), base+int64(r)*7919)
		if err != nil {
			return 0, 0, err
		}
		if _, err := cinterp.Run(e.Prog, st.Lib); err != nil {
			return 0, 0, err
		}
		perf, _ := workload.Perf(st.Sim.Report)
		perfSum += perf
		minutes += st.Sim.Now() / 60
	}
	return perfSum / float64(reps), minutes, nil
}

// executeAveraged runs the workload reps times, seeded seed, seed+7919, …,
// and averages perf rep by rep (the paper performs 3 runs per
// configuration to mitigate platform volatility). Runtime accumulates
// across runs: the time cost of the extra runs is part of the tuning
// investment.
func executeAveraged(w workload.Workload, c *cluster.Cluster, s params.StackSettings, seed int64, reps int) (workload.RunResult, error) {
	if reps < 1 {
		reps = 1
	}
	var out workload.RunResult
	for i := 0; i < reps; i++ {
		r, err := workload.Execute(w, c, s, seed+int64(i)*7919)
		if err != nil {
			return workload.RunResult{}, err
		}
		out.Perf += r.Perf / float64(reps)
		out.Alpha += r.Alpha / float64(reps)
		out.Runtime += r.Runtime
	}
	return out, nil
}

func TestExecuteAveraged(t *testing.T) {
	c := cluster.CoriHaswell(4, 32) // with noise
	w := workload.NewVPIC(c.Procs())
	s := params.DefaultAssignment(params.Space()).Settings()
	single, err := workload.Execute(w, c, s, 5)
	if err != nil {
		t.Fatal(err)
	}
	avg, err := executeAveraged(w, c, s, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if avg.Runtime <= 2*single.Runtime {
		t.Fatalf("3-run averaged runtime %v should accumulate ~3x single %v", avg.Runtime, single.Runtime)
	}
	if avg.Perf <= 0 {
		t.Fatal("averaged perf missing")
	}
	// reps < 1 clamps
	if _, err := executeAveraged(w, c, s, 5, 0); err != nil {
		t.Fatal(err)
	}
}
