package experiments

import (
	"context"
	"fmt"
	"strings"

	"tunio/internal/metrics"
	"tunio/internal/params"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

// Fig01Result is Figure 1: user-level parameter permutations of HPC I/O
// libraries and the full-stack products.
type Fig01Result struct {
	Libraries []params.LibraryInfo
	// HDF5MPIStack is the headline HDF5+MPI full-stack permutation count
	// (the paper reports 3.81e21).
	HDF5MPIStack float64
	// EvalSpace is the evaluation's 12-parameter space size (paper: >2.18e9).
	EvalSpace uint64
}

// Fig01 computes the permutation catalog.
func Fig01(cfg Config) *Fig01Result {
	return &Fig01Result{
		Libraries:    params.LibraryCatalog(),
		HDF5MPIStack: params.StackPermutations("HDF5", "MPI"),
		EvalSpace:    params.TotalPermutations(params.Space()),
	}
}

// String renders the figure.
func (r *Fig01Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 1: user-level parameter permutations per library\n")
	fmt.Fprintf(&b, "%-12s %9s %11s %14s\n", "library", "discrete", "continuous", "permutations")
	for _, l := range r.Libraries {
		fmt.Fprintf(&b, "%-12s %9d %11d %14.3g\n", l.Name, l.Discrete, l.Continuous, l.Permutations())
	}
	fmt.Fprintf(&b, "HDF5+MPI full-stack permutations: %.3g (paper: 3.81e21)\n", r.HDF5MPIStack)
	fmt.Fprintf(&b, "evaluation 12-parameter space:    %d (paper: >2.18e9)\n", r.EvalSpace)
	return b.String()
}

// Fig02Result is Figure 2: HSTuner tuning curves for HACC, FLASH, and
// VPIC, demonstrating the logarithmic shape that motivates early stopping.
type Fig02Result struct {
	Curves map[string]metrics.Curve
}

// Fig02 tunes the three kernels with the plain pipeline (no stopping).
func Fig02(cfg Config) (*Fig02Result, error) {
	c := cfg.componentCluster()
	out := &Fig02Result{Curves: map[string]metrics.Curve{}}
	for i, name := range []string{"hacc", "flash", "vpic"} {
		w, err := workload.ByName(name, c.Procs())
		if err != nil {
			return nil, err
		}
		res, err := tuner.RunReplay(context.Background(), tuner.Config{
			Space:         params.Space(),
			PopSize:       cfg.popSize(),
			MaxIterations: cfg.maxIterations(),
			Seed:          cfg.Seed + int64(i),
		}, tuner.KernelSource{Workload: w}, c, cfg.Seed+int64(i), cfg.reps())
		if err != nil {
			return nil, err
		}
		out.Curves[name] = res.Curve
	}
	return out, nil
}

// LogShaped reports whether a curve gained more in its first half than its
// second (the defining property of Figure 2).
func LogShaped(c metrics.Curve) bool {
	if len(c) < 4 {
		return false
	}
	mid := len(c) / 2
	firstHalf := c[mid].BestPerf - c.Baseline()
	secondHalf := c.FinalBest() - c[mid].BestPerf
	return firstHalf > secondHalf
}

// String renders the figure.
func (r *Fig02Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 2: I/O bandwidth vs tuning iteration (HSTuner)\n")
	for _, name := range []string{"hacc", "flash", "vpic"} {
		c := r.Curves[name]
		fmt.Fprintf(&b, "%-6s baseline %-12s final %-12s speedup %.2fx  log-shaped=%v\n",
			name, fmtMBs(c.Baseline()), fmtMBs(c.FinalBest()), c.Speedup(), LogShaped(c))
		b.WriteString("       best-so-far:")
		for i, p := range c {
			if i%3 == 0 {
				fmt.Fprintf(&b, " %0.f", p.BestPerf)
			}
		}
		b.WriteString(" MB/s\n")
	}
	return b.String()
}
