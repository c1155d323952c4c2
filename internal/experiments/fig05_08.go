package experiments

import (
	"context"
	"fmt"
	"strings"

	"tunio/internal/cinterp"
	"tunio/internal/csrc"
	"tunio/internal/darshan"
	"tunio/internal/discovery"
	"tunio/internal/metrics"
	"tunio/internal/params"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

// Fig05Result is Figure 5: the marking process on a VPIC-style source.
type Fig05Result struct {
	TotalLines  int
	MarkedLines []int
	Kernel      string
}

// Fig05 runs Application I/O Discovery on the VPIC source and reports the
// per-line marking. It pins the heuristic per-line fixpoint marking: that
// is the algorithm §III-B of the paper illustrates, and the figure's
// kept-line shape is defined by it (precise slicing, the library default,
// keeps a different — smaller — line set).
func Fig05(cfg Config) (*Fig05Result, error) {
	v := workload.NewVPIC(cfg.componentCluster().Procs())
	k, err := discovery.Discover(v.CSource(), discovery.Options{Heuristic: true})
	if err != nil {
		return nil, err
	}
	return &Fig05Result{
		TotalLines:  k.TotalLines,
		MarkedLines: k.MarkedLines,
		Kernel:      k.Source,
	}, nil
}

// String renders the figure.
func (r *Fig05Result) String() string {
	return fmt.Sprintf("Figure 5: marking kept %d of %d formatted lines (%.0f%%)\n",
		len(r.MarkedLines), r.TotalLines, 100*float64(len(r.MarkedLines))/float64(r.TotalLines))
}

// Fig08Variant is one I/O-discovery tuning variant of Figure 8.
type Fig08Variant struct {
	Name        string
	Curve       metrics.Curve
	PeakRoTI    float64
	PeakAtMin   float64
	FinalPerf   float64
	TotalMin    float64
	LoopScale   float64
	KernelLines int
}

// Fig08Result covers Figures 8(a) and 8(b): Return on Tuning Investment
// with and without Application I/O Discovery, and with loop reduction.
type Fig08Result struct {
	FullApp Fig08Variant
	Kernel  Fig08Variant
	Reduced Fig08Variant
}

// Fig08 tunes MACSio (compute ratio baselined on VPIC Dipole) three ways:
// the full application, its discovered I/O kernel, and the kernel with 1%
// loop reduction — each program recorded once and replayed per genome.
func Fig08(cfg Config) (*Fig08Result, error) {
	c := cfg.componentCluster()
	m := workload.NewMACSio(c.Procs())
	src := m.CSource()

	fullProg, err := csrc.Parse(src)
	if err != nil {
		return nil, err
	}
	kernel, err := discovery.Discover(src, discovery.Options{})
	if err != nil {
		return nil, err
	}
	reduced, err := discovery.Discover(src, discovery.Options{LoopReduction: 0.01})
	if err != nil {
		return nil, err
	}

	out := &Fig08Result{}
	for i, v := range []struct {
		name  string
		prog  *csrc.File
		scale float64
		lines int
		dst   *Fig08Variant
	}{
		{"full application", fullProg, 1, 0, &out.FullApp},
		{"I/O kernel", kernel.File, kernel.LoopScale, len(kernel.MarkedLines), &out.Kernel},
		{"kernel + loop reduction (1%)", reduced.File, reduced.LoopScale, len(reduced.MarkedLines), &out.Reduced},
	} {
		res, err := tuner.RunReplay(context.Background(), tuner.Config{
			Space:         params.Space(),
			PopSize:       cfg.popSize(),
			MaxIterations: cfg.maxIterations(),
			Seed:          cfg.Seed + 100, // same seed: identical search trajectory
		}, tuner.KernelSource{Prog: v.prog}, c, cfg.Seed+int64(i), cfg.reps())
		if err != nil {
			return nil, fmt.Errorf("fig08 %s: %w", v.name, err)
		}
		peak, at, _ := res.Curve.PeakRoTI()
		*v.dst = Fig08Variant{
			Name:        v.name,
			Curve:       res.Curve,
			PeakRoTI:    peak,
			PeakAtMin:   at,
			FinalPerf:   res.Curve.FinalBest(),
			TotalMin:    res.Curve.TotalMinutes(),
			LoopScale:   v.scale,
			KernelLines: v.lines,
		}
	}
	return out, nil
}

// String renders figures 8(a) and 8(b).
func (r *Fig08Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 8(a,b): Return on Tuning Investment with I/O Discovery\n")
	fmt.Fprintf(&b, "%-30s %10s %14s %12s %12s\n", "variant", "peak RoTI", "peak at (min)", "total (min)", "final perf")
	for _, v := range []Fig08Variant{r.FullApp, r.Kernel, r.Reduced} {
		fmt.Fprintf(&b, "%-30s %10.2f %14.1f %12.1f %12s\n",
			v.Name, v.PeakRoTI, v.PeakAtMin, v.TotalMin, fmtMBs(v.FinalPerf))
	}
	fmt.Fprintf(&b, "kernel peak-RoTI gain over full app: %.2fx (paper: 2.87 vs 2.47)\n",
		r.Kernel.PeakRoTI/r.FullApp.PeakRoTI)
	fmt.Fprintf(&b, "loop-reduction peak-RoTI gain:       %.2fx (paper: 23.30 vs 2.47, >9x)\n",
		r.Reduced.PeakRoTI/r.FullApp.PeakRoTI)
	fmt.Fprintf(&b, "time-to-peak reduction (kernel):     %.0f%% (paper: 14%%)\n",
		100*(1-r.Kernel.PeakAtMin/r.FullApp.PeakAtMin))
	return b.String()
}

// Fig08cResult is Figure 8(c): similarity of the generated kernels' I/O
// footprint to the original application.
type Fig08cResult struct {
	AppBytes, KernelBytes, ReducedBytes float64 // reduced scaled by LoopScale
	AppOps, KernelOps, ReducedOps       float64
	BytesErrKernel, BytesErrReduced     float64 // absolute % error
	OpsErrKernel, OpsErrReduced         float64
}

// Fig08c runs the full app, its kernel, and the loop-reduced kernel once
// each and compares darshan footprints (the reduced kernel's counters are
// multiplied by the loop scale before comparison, as in the paper).
func Fig08c(cfg Config) (*Fig08cResult, error) {
	c := cfg.componentCluster()
	m := workload.NewMACSio(c.Procs())
	src := m.CSource()
	settings := params.DefaultAssignment(params.Space()).Settings()

	// run returns the app counters and the actual loop scale of the run.
	run := func(prog *csrc.File) (*darshan.LayerCounters, float64, error) {
		st, err := workload.BuildStack(c, settings, cfg.Seed+55)
		if err != nil {
			return nil, 1, err
		}
		res, err := cinterp.Run(prog, st.Lib)
		if err != nil {
			return nil, 1, err
		}
		return st.Sim.Report.App(), res.LoopScale, nil
	}

	fullProg, err := csrc.Parse(src)
	if err != nil {
		return nil, err
	}
	kernel, err := discovery.Discover(src, discovery.Options{})
	if err != nil {
		return nil, err
	}
	reduced, err := discovery.Discover(src, discovery.Options{LoopReduction: 0.01})
	if err != nil {
		return nil, err
	}

	app, _, err := run(fullProg)
	if err != nil {
		return nil, err
	}
	kApp, kScale, err := run(kernel.File)
	if err != nil {
		return nil, err
	}
	rApp, rScale, err := run(reduced.File)
	if err != nil {
		return nil, err
	}

	out := &Fig08cResult{
		AppBytes:     float64(app.BytesWritten),
		KernelBytes:  float64(kApp.BytesWritten) * kScale,
		ReducedBytes: float64(rApp.BytesWritten) * rScale,
		AppOps:       float64(app.WriteOps),
		KernelOps:    float64(kApp.WriteOps) * kScale,
		ReducedOps:   float64(rApp.WriteOps) * rScale,
	}
	out.BytesErrKernel = darshan.PercentError(out.KernelBytes, out.AppBytes)
	out.BytesErrReduced = darshan.PercentError(out.ReducedBytes, out.AppBytes)
	out.OpsErrKernel = darshan.PercentError(out.KernelOps, out.AppOps)
	out.OpsErrReduced = darshan.PercentError(out.ReducedOps, out.AppOps)
	return out, nil
}

// String renders figure 8(c).
func (r *Fig08cResult) String() string {
	var b strings.Builder
	b.WriteString("Figure 8(c): kernel I/O footprint vs original application\n")
	fmt.Fprintf(&b, "%-18s %16s %14s\n", "metric", "kernel err", "reduced err")
	fmt.Fprintf(&b, "%-18s %15.3f%% %13.3f%%  (paper: 0.0002%% / 0.19%%)\n",
		"bytes written", r.BytesErrKernel, r.BytesErrReduced)
	fmt.Fprintf(&b, "%-18s %15.3f%% %13.3f%%  (paper: 19.05%% / 4.87%%)\n",
		"write operations", r.OpsErrKernel, r.OpsErrReduced)
	return b.String()
}
