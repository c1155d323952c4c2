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

// Fig09Result is Figure 9: impact-first tuning on FLASH.
type Fig09Result struct {
	WithPicker    metrics.Curve
	WithoutPicker metrics.Curve
	// Target is the reference bandwidth both runs are compared at (MB/s).
	Target float64
	// IterWith and IterWithout are the first iterations reaching Target
	// (-1 = never).
	IterWith, IterWithout int
	// ImprovementPct is the reduction in iterations (paper: 86.05%).
	ImprovementPct float64
	// ChangedParams lists parameters the impact-first run tuned away from
	// defaults (paper: 7 of 12).
	ChangedParams []string
}

// Fig09 tunes FLASH with and without the Smart Configuration Generation
// component and measures iterations to a common bandwidth target.
func Fig09(cfg Config) (*Fig09Result, error) {
	c := cfg.componentCluster()
	agent, err := Agent(cfg)
	if err != nil {
		return nil, err
	}

	run := func(usePicker bool) (*tuner.Result, error) {
		agent, err := agent.Clone()
		if err != nil {
			return nil, err
		}
		w, err := workload.ByName("flash", c.Procs())
		if err != nil {
			return nil, err
		}
		tc := tuner.Config{
			Space:         params.Space(),
			PopSize:       cfg.popSize(),
			MaxIterations: cfg.maxIterations() * 2, // give no-picker room to catch up
			Seed:          cfg.Seed + 200,
		}
		if usePicker {
			agent.Picker.Reset()
			tc.Picker = agent.Picker
		}
		return tuner.RunReplay(context.Background(), tc, tuner.KernelSource{Workload: w}, c, cfg.Seed+200, cfg.reps())
	}

	with, err := run(true)
	if err != nil {
		return nil, err
	}
	without, err := run(false)
	if err != nil {
		return nil, err
	}

	// Target: 90% of the lower final best, reachable by both runs.
	target := with.Curve.FinalBest()
	if wb := without.Curve.FinalBest(); wb < target {
		target = wb
	}
	target *= 0.9

	out := &Fig09Result{
		WithPicker:    with.Curve,
		WithoutPicker: without.Curve,
		Target:        target,
		IterWith:      with.Curve.FirstReaching(target),
		IterWithout:   without.Curve.FirstReaching(target),
		ChangedParams: with.Best.ChangedFromDefault(),
	}
	if out.IterWith > 0 && out.IterWithout > 0 {
		out.ImprovementPct = 100 * (1 - float64(out.IterWith)/float64(out.IterWithout))
	}
	return out, nil
}

// String renders the figure.
func (r *Fig09Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 9: impact-first tuning (FLASH)\n")
	fmt.Fprintf(&b, "target bandwidth %s reached at iteration %d (impact-first) vs %d (all parameters)\n",
		fmtMBs(r.Target), r.IterWith, r.IterWithout)
	fmt.Fprintf(&b, "iteration improvement: %.1f%% (paper: 86.05%%, iteration 6 vs 43)\n", r.ImprovementPct)
	fmt.Fprintf(&b, "parameters changed from defaults: %d of 12 (paper: 7) %v\n",
		len(r.ChangedParams), r.ChangedParams)
	return b.String()
}

// StopPolicy is one stopping policy's outcome in Figure 10.
type StopPolicy struct {
	Name      string
	StopIter  int
	Bandwidth float64 // MB/s at stop
	RoTI      float64
	PctOfBest float64 // fraction of the perfect RoTI
	Minutes   float64
}

// Fig10Result covers Figures 10(a) and 10(b): early stopping on HACC.
type Fig10Result struct {
	Curve       metrics.Curve
	Baseline    float64
	PerfectRoTI float64
	PerfectIter int
	Policies    []StopPolicy
	// SpeedupAtTunIOStop is bandwidth at the RL stop over the untuned
	// bandwidth (paper: ~4x).
	SpeedupAtTunIOStop float64
}

// Fig10 tunes HACC for the full budget recording the curve, then evaluates
// the stopping policies on that same trajectory: TunIO's RL stopper, the
// 5%/5-iteration heuristic, the Maximizing Performance oracle, and the
// full budget.
func Fig10(cfg Config) (*Fig10Result, error) {
	c := cfg.componentCluster()
	agent, err := Agent(cfg)
	if err != nil {
		return nil, err
	}
	agent, err = agent.Clone()
	if err != nil {
		return nil, err
	}
	w, err := workload.ByName("hacc", c.Procs())
	if err != nil {
		return nil, err
	}
	full, err := tuner.RunReplay(context.Background(), tuner.Config{
		Space:         params.Space(),
		PopSize:       cfg.popSize(),
		MaxIterations: cfg.maxIterations(),
		Seed:          cfg.Seed + 300,
	}, tuner.KernelSource{Workload: w}, c, cfg.Seed+300, cfg.reps())
	if err != nil {
		return nil, err
	}
	curve := full.Curve

	perfect, _, perfectIter := curve.PeakRoTI()

	// replay a stopper over the recorded curve
	replay := func(s tuner.Stopper) int {
		s.Reset()
		for i, p := range curve {
			if i == 0 {
				continue
			}
			if s.Stop(p.Iteration, p.BestPerf) {
				return i
			}
		}
		return len(curve) - 1
	}

	agent.Stopper.Reset()
	tunioStop := replay(agent.Stopper)
	heuristicStop := replay(tuner.NewHeuristicStopper())
	oracleStop := replay(&tuner.OracleStopper{Target: curve.FinalBest()})
	budgetStop := len(curve) - 1

	mkPolicy := func(name string, idx int) StopPolicy {
		r := curve.RoTIAt(idx)
		pct := 0.0
		if perfect > 0 {
			pct = 100 * r / perfect
		}
		return StopPolicy{
			Name:      name,
			StopIter:  curve[idx].Iteration,
			Bandwidth: curve[idx].BestPerf,
			RoTI:      r,
			PctOfBest: pct,
			Minutes:   curve[idx].TimeMinutes,
		}
	}

	out := &Fig10Result{
		Curve:       curve,
		Baseline:    curve.Baseline(),
		PerfectRoTI: perfect,
		PerfectIter: curve[perfectIter].Iteration,
		Policies: []StopPolicy{
			mkPolicy("TunIO RL stopping", tunioStop),
			mkPolicy("Maximizing Performance", oracleStop),
			mkPolicy("Heuristic (5%/5 iters)", heuristicStop),
			mkPolicy("Full budget", budgetStop),
		},
	}
	if out.Baseline > 0 {
		out.SpeedupAtTunIOStop = curve[tunioStop].BestPerf / out.Baseline
	}
	return out, nil
}

// Policy returns the named policy row (zero value when absent).
func (r *Fig10Result) Policy(name string) StopPolicy {
	for _, p := range r.Policies {
		if p.Name == name {
			return p
		}
	}
	return StopPolicy{}
}

// String renders figures 10(a) and 10(b).
func (r *Fig10Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 10: early stopping on HACC\n")
	fmt.Fprintf(&b, "untuned %s; perfect RoTI %.2f at iteration %d\n",
		fmtMBs(r.Baseline), r.PerfectRoTI, r.PerfectIter)
	fmt.Fprintf(&b, "%-26s %6s %12s %8s %10s %10s\n", "policy", "stop@", "bandwidth", "RoTI", "% of best", "minutes")
	for _, p := range r.Policies {
		fmt.Fprintf(&b, "%-26s %6d %12s %8.2f %9.1f%% %10.1f\n",
			p.Name, p.StopIter, fmtMBs(p.Bandwidth), p.RoTI, p.PctOfBest, p.Minutes)
	}
	fmt.Fprintf(&b, "speedup at TunIO stop: %.1fx over untuned (paper: ~4x, 2.2 GB/s over 0.55)\n",
		r.SpeedupAtTunIOStop)
	b.WriteString("(paper RoTI shares: TunIO 90.5%, MaxPerf 86.1%, heuristic 59.3%, budget 77.9%)\n")
	return b.String()
}
