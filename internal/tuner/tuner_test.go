package tuner

import (
	"context"
	"reflect"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// syntheticEval scores an assignment by how many parameters sit at their
// maximum index — a smooth landscape the GA can climb.
func syntheticEval(a *params.Assignment, _ int) (float64, float64, error) {
	score := 0.0
	for i, f := range a.Features() {
		_ = i
		score += f
	}
	return 100 * score, 1.0, nil
}

func TestRunValidation(t *testing.T) {
	if _, err := run(Config{}, syntheticEval); err == nil {
		t.Fatal("empty space: want error")
	}
	if _, err := RunBatch(context.Background(), Config{Space: params.Space()}, nil); err == nil {
		t.Fatal("nil evaluator: want error")
	}
}

func TestPipelineImprovesOnSynthetic(t *testing.T) {
	res, err := run(Config{
		Space:         params.Space(),
		PopSize:       12,
		MaxIterations: 20,
		Seed:          1,
	}, syntheticEval)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Curve.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Curve.FinalBest() <= res.Curve.Baseline() {
		t.Fatalf("no improvement: %v -> %v", res.Curve.Baseline(), res.Curve.FinalBest())
	}
	if res.Evaluations != 12*20+1 {
		t.Fatalf("evaluations = %d, want 241 (baseline + 20 generations)", res.Evaluations)
	}
	if res.StoppedEarly {
		t.Fatal("no stopper attached but stopped early")
	}
	if res.Best == nil || res.BestPerf <= 0 {
		t.Fatal("missing best")
	}
}

func TestDefaultsSeededAsBaseline(t *testing.T) {
	// The first iteration must contain the default configuration, so the
	// curve baseline equals the default's perf.
	sawDefault := false
	def := params.DefaultAssignment(params.Space()).String()
	eval := func(a *params.Assignment, iter int) (float64, float64, error) {
		if iter == 0 && a.String() == def {
			sawDefault = true
		}
		return syntheticEval(a, iter)
	}
	if _, err := run(Config{Space: params.Space(), PopSize: 8, MaxIterations: 2, Seed: 2}, eval); err != nil {
		t.Fatal(err)
	}
	if !sawDefault {
		t.Fatal("default configuration was not evaluated in iteration 0")
	}
}

func TestTimeAccounting(t *testing.T) {
	res, err := run(Config{
		Space: params.Space(), PopSize: 4, MaxIterations: 3, Seed: 3, Overhead: 0.5,
	}, func(a *params.Assignment, _ int) (float64, float64, error) {
		return 1, 2.0, nil // 2 minutes per eval
	})
	if err != nil {
		t.Fatal(err)
	}
	// (baseline + 3 iterations x 4 evals) x (2 + 0.5) minutes
	want := (1 + 3*4) * 2.5
	if got := res.Curve.TotalMinutes(); got != want {
		t.Fatalf("total minutes = %v, want %v", got, want)
	}
}

func TestHeuristicStopperFiresOnPlateau(t *testing.T) {
	// Perf improves for 4 iterations then plateaus: the 5%/5-iteration
	// heuristic must stop around iteration 9.
	res, err := run(Config{
		Space: params.Space(), PopSize: 4, MaxIterations: 50, Seed: 4,
		Stopper: NewHeuristicStopper(),
	}, func(_ *params.Assignment, iter int) (float64, float64, error) {
		perf := 100.0 + 50*float64(min(iter, 4))
		return perf, 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedEarly {
		t.Fatal("heuristic did not stop on plateau")
	}
	if res.StoppedAt < 8 || res.StoppedAt > 11 {
		t.Fatalf("stopped at %d, want ~9", res.StoppedAt)
	}
}

func TestHeuristicStopperKeepsGoingWhileImproving(t *testing.T) {
	h := NewHeuristicStopper()
	perf := 100.0
	for i := 0; i < 30; i++ {
		perf *= 1.10 // 10% per iteration > 5% threshold
		if h.Stop(i, perf) {
			t.Fatalf("stopped at %d despite steady improvement", i)
		}
	}
	h.Reset()
	if len(h.history) != 0 {
		t.Fatal("Reset did not clear history")
	}
}

func TestHeuristicStopperZeroConfigDefaults(t *testing.T) {
	// A zero-valued stopper behaves as the paper's 5%/5-iteration default
	// without mutating its public fields: it must not stop before the
	// 5-point window fills, and must stop on a flat plateau right after.
	h := &HeuristicStopper{}
	stopped := -1
	for i := 0; i < 10; i++ {
		if h.Stop(i, 100) {
			stopped = i
			break
		}
	}
	if stopped != 5 {
		t.Fatalf("zero-config stopper stopped at %d, want 5 (default window)", stopped)
	}
	if h.Window != 0 || h.MinImprovement != 0 {
		t.Fatalf("Stop mutated the configured thresholds: Window=%d MinImprovement=%v",
			h.Window, h.MinImprovement)
	}
}

func TestHeuristicStopperResetRestoresInitialState(t *testing.T) {
	h := &HeuristicStopper{Window: 3, MinImprovement: 0.10}
	initial := *h
	for i := 0; i < 8; i++ {
		h.Stop(i, 100)
	}
	h.Reset()
	if !reflect.DeepEqual(*h, initial) {
		t.Fatalf("Reset left state %+v, want the initial %+v", *h, initial)
	}
	// a reset stopper must re-fill its window from scratch
	for i := 0; i < 3; i++ {
		if h.Stop(i, 100) {
			t.Fatalf("stopped at %d after Reset, before the window refilled", i)
		}
	}
}

func TestOracleStopper(t *testing.T) {
	o := &OracleStopper{Target: 500}
	if o.Stop(0, 499) {
		t.Fatal("stopped below target")
	}
	if !o.Stop(1, 500) {
		t.Fatal("did not stop at target")
	}
	o.Reset() // no-op, must not panic
}

// TestBudgetStopper pins the documented boundary: the pipeline calls Stop
// with the 1-based tuning iteration after recording it, so a budget of N
// runs exactly N tuning iterations — Stop(N) is the first true call.
func TestBudgetStopper(t *testing.T) {
	cases := []struct {
		name      string
		max       int
		falseThru int // Stop(1..falseThru) must be false
		firstTrue int // Stop(firstTrue) must be true
	}{
		{name: "budget of three", max: 3, falseThru: 2, firstTrue: 3},
		{name: "budget of one", max: 1, falseThru: 0, firstTrue: 1},
		{name: "zero budget stops immediately", max: 0, falseThru: 0, firstTrue: 1},
		{name: "negative budget stops immediately", max: -2, falseThru: 0, firstTrue: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := &budgetStopper{MaxIterations: tc.max}
			for it := 1; it <= tc.falseThru; it++ {
				if b.Stop(it, 1) {
					t.Fatalf("Stop(%d) = true before the budget of %d was spent", it, tc.max)
				}
			}
			if !b.Stop(tc.firstTrue, 1) {
				t.Fatalf("Stop(%d) = false, want true: budget of %d allows exactly %d iterations",
					tc.firstTrue, tc.max, tc.max)
			}
			b.Reset() // stateless; must not panic
		})
	}
}

func TestAllParamsPicker(t *testing.T) {
	p := allParams{}
	mask := p.NextSubset(0, make([]bool, 5))
	for _, m := range mask {
		if !m {
			t.Fatal("allParams must activate everything")
		}
	}
	p.Reset()
}

// budgetStopper stops after a fixed number of iterations regardless of
// progress (a user-imposed tuning budget); the tests use it to cut a run
// short.
//
// The boundary semantics: the pipeline calls Stop with the 1-based tuning
// iteration number after recording that iteration, so Stop fires once
// iteration >= MaxIterations — exactly MaxIterations evaluated tuning
// iterations run (the iteration-0 baseline evaluation is not counted
// against the budget). A non-positive budget stops at the first
// opportunity.
type budgetStopper struct {
	MaxIterations int
}

// Stop implements Stopper.
func (b *budgetStopper) Stop(iteration int, _ float64) bool {
	return iteration >= b.MaxIterations
}

// Reset implements Stopper.
func (b *budgetStopper) Reset() {}

// allParams is the HSTuner baseline picker: every parameter is tuned every
// iteration — what a nil SubsetPicker does.
type allParams struct{}

// NextSubset implements SubsetPicker.
func (allParams) NextSubset(_ float64, current []bool) []bool {
	out := make([]bool, len(current))
	for i := range out {
		out[i] = true
	}
	return out
}

// Reset implements SubsetPicker.
func (allParams) Reset() {}

// fixedPicker always returns the same mask, for testing subset plumbing.
type fixedPicker struct{ mask []bool }

func (f *fixedPicker) NextSubset(float64, []bool) []bool { return f.mask }
func (f *fixedPicker) Reset()                            {}

func TestSubsetPickerRestrictsSearch(t *testing.T) {
	space := params.Space()
	mask := make([]bool, len(space))
	mask[params.Index(space, params.StripingFactor)] = true
	mask[params.Index(space, params.CollectiveWrite)] = true

	res, err := run(Config{
		Space: space, PopSize: 8, MaxIterations: 6, Seed: 5,
		Picker: &fixedPicker{mask: mask},
	}, syntheticEval)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SubsetTrace) != 7 { // baseline entry + 6 generations
		t.Fatalf("subset trace length %d", len(res.SubsetTrace))
	}
	if res.SubsetTrace[0] != nil {
		t.Fatal("baseline iteration should have no subset")
	}
	for _, tr := range res.SubsetTrace[1:] {
		for i, m := range tr {
			if m != mask[i] {
				t.Fatal("trace does not match picker mask")
			}
		}
	}
	// Inactive parameters must stay at their defaults in the final best
	// (the default genome seeds pinning before any better genome exists).
	changed := res.Best.ChangedFromDefault()
	for _, name := range changed {
		if name != params.StripingFactor && name != params.CollectiveWrite {
			t.Fatalf("inactive parameter %s changed", name)
		}
	}
}

func TestWorkloadEvaluatorEndToEnd(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	c.Noise = 0
	w := workload.NewMACSio(c.Procs())
	w.Dumps = 2
	eval := &SeededWorkloadEvaluator{Workload: w, Cluster: c, Reps: 1, Seed: 9}
	a := params.DefaultAssignment(params.Space())
	perf, cost, err := eval.Evaluate(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if perf <= 0 || cost <= 0 {
		t.Fatalf("perf %v cost %v", perf, cost)
	}
	// Seeds derive from (iteration, genome), never from call order: under
	// noise another iteration measures differently, the same one identically.
	c.Noise = 0.04
	p1, _, _ := eval.Evaluate(a, 1)
	p2, _, _ := eval.Evaluate(a, 2)
	if p1 == p2 {
		t.Fatal("evaluations at different iterations identical despite noise")
	}
	if again, _, _ := eval.Evaluate(a, 1); again != p1 {
		t.Fatal("re-evaluating the same (genome, iteration) measured differently")
	}
}

func TestShortWorkloadTuningImproves(t *testing.T) {
	// A small real tuning run on the simulated stack must improve perf
	// substantially (FLASH has large untuned-vs-tuned headroom).
	c := cluster.CoriHaswell(4, 8)
	w := workload.NewFLASH(c.Procs())
	w.BlocksPerRank = 16
	w.Unknowns = 4
	res, err := RunReplay(context.Background(), Config{
		Space: params.Space(), PopSize: 8, MaxIterations: 10, Seed: 10,
	}, KernelSource{Workload: w}, c, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve.Speedup() < 1.5 {
		t.Fatalf("tuning speedup %.2fx, want >= 1.5x", res.Curve.Speedup())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
