package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"

	"tunio/internal/cinterp"
	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/discovery"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

// SliceVariant is one slicing strategy's measurements on one workload.
type SliceVariant struct {
	KernelLines     int  // marked lines kept in the kernel
	TotalLines      int  // formatted source lines
	ReplayIdentical bool // kernel replays the app's exact I/O stream
	PeakRoTI        float64
	FinalPerf       float64 // MB/s after the tuning run
	TotalMin        float64 // simulated tuning minutes
}

// SliceRow compares the two slicing strategies on one workload.
type SliceRow struct {
	Workload  string
	Precise   SliceVariant
	Heuristic SliceVariant
}

// SliceBenchResult is the precise-vs-heuristic slicing benchmark backing
// the promotion of precise slicing to the default: for every paper workload it measures
// kernel size, replay fidelity, and the tuning outcome (RoTI, final perf)
// under both strategies. What discovery and the first evaluation cost the
// host is bench/'s to say (discovery.discover_ms, cinterp.record_ms).
type SliceBenchResult struct {
	Rows []SliceRow
}

// sliceWorkloads is the paper's workload set (§IV, Table III).
var sliceWorkloads = []string{"vpic", "hacc", "flash", "macsio", "bdcats"}

// SliceBench runs the benchmark over every paper workload.
func SliceBench(cfg Config) (*SliceBenchResult, error) {
	return sliceBench(cfg, sliceWorkloads)
}

// sliceBench runs the benchmark over the named workloads (split out so the
// unit test can cover a single one).
func sliceBench(cfg Config, names []string) (*SliceBenchResult, error) {
	c := cfg.componentCluster()
	c.Noise = 0 // replay and timing comparisons want determinism
	out := &SliceBenchResult{}
	for _, name := range names {
		w, err := workload.ByName(name, c.Procs())
		if err != nil {
			return nil, err
		}
		cw, ok := w.(workload.HasCSource)
		if !ok {
			return nil, fmt.Errorf("slicebench: %s has no C source", name)
		}
		src := cw.CSource()

		orig, err := traceOf(cfg, c, nil, src)
		if err != nil {
			return nil, fmt.Errorf("slicebench: %s original: %w", name, err)
		}

		row := SliceRow{Workload: name}
		for _, v := range []struct {
			opts discovery.Options
			dst  *SliceVariant
		}{
			{discovery.Options{}, &row.Precise},
			{discovery.Options{Heuristic: true}, &row.Heuristic},
		} {
			if err := sliceVariant(cfg, c, src, orig, v.opts, v.dst); err != nil {
				return nil, fmt.Errorf("slicebench: %s: %w", name, err)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// sliceVariant fills one variant's measurements.
func sliceVariant(cfg Config, c *cluster.Cluster, src string, orig []replay.Event, opts discovery.Options, dst *SliceVariant) error {
	k, err := discovery.Discover(src, opts)
	if err != nil {
		return err
	}
	dst.KernelLines = len(k.MarkedLines)
	dst.TotalLines = k.TotalLines

	trace, err := traceOf(cfg, c, k.File, "")
	if err != nil {
		return err
	}
	dst.ReplayIdentical = reflect.DeepEqual(orig, trace)

	res, err := tuner.RunReplay(context.Background(), tuner.Config{
		Space:         params.Space(),
		PopSize:       cfg.popSize(),
		MaxIterations: cfg.maxIterations(),
		Seed:          cfg.Seed + 300, // same trajectory for both variants
	}, tuner.KernelSource{Prog: k.File}, c, cfg.Seed+300, cfg.reps())
	if err != nil {
		return err
	}
	dst.PeakRoTI, _, _ = res.Curve.PeakRoTI()
	dst.FinalPerf = res.Curve.FinalBest()
	dst.TotalMin = res.Curve.TotalMinutes()
	return nil
}

// traceOf records the I/O request stream of prog (or of source text when
// prog is nil) on a fresh default-configured stack: the run's trace without
// its compute phases, which a kernel is meant to lose.
func traceOf(cfg Config, c *cluster.Cluster, prog *csrc.File, src string) ([]replay.Event, error) {
	if prog == nil {
		p, err := csrc.Parse(src)
		if err != nil {
			return nil, err
		}
		prog = p
	}
	st, err := workload.BuildStack(c, params.DefaultAssignment(params.Space()).Settings(), cfg.Seed+77)
	if err != nil {
		return nil, err
	}
	t, err := replay.RecordFunc(st, func(st *workload.Stack) error {
		_, err := cinterp.Run(prog, st.Lib)
		return err
	})
	if err != nil {
		return nil, err
	}
	var stream []replay.Event
	for _, ev := range t.Events {
		if ev.Kind != replay.EvCompute {
			stream = append(stream, ev)
		}
	}
	return stream, nil
}

// String renders the benchmark table and the promotion verdict.
func (r *SliceBenchResult) String() string {
	var b strings.Builder
	b.WriteString("Slice benchmark: precise (CFG def-use) vs heuristic (line marking) kernels\n")
	fmt.Fprintf(&b, "%-8s %-10s %8s %8s %10s %12s\n",
		"workload", "variant", "lines", "replay", "peak RoTI", "final perf")
	preciseWins, heuristicWins := 0, 0
	for _, row := range r.Rows {
		for _, v := range []struct {
			name string
			sv   SliceVariant
		}{{"precise", row.Precise}, {"heuristic", row.Heuristic}} {
			fmt.Fprintf(&b, "%-8s %-10s %8d %8v %10.2f %12s\n",
				row.Workload, v.name, v.sv.KernelLines,
				v.sv.ReplayIdentical, v.sv.PeakRoTI, fmtMBs(v.sv.FinalPerf))
		}
		if row.Precise.KernelLines <= row.Heuristic.KernelLines && row.Precise.ReplayIdentical {
			preciseWins++
		}
		if row.Heuristic.KernelLines < row.Precise.KernelLines && row.Heuristic.ReplayIdentical {
			heuristicWins++
		}
	}
	fmt.Fprintf(&b, "precise kernels no larger and replay-identical on %d/%d workloads (heuristic smaller on %d)\n",
		preciseWins, len(r.Rows), heuristicWins)
	return b.String()
}
