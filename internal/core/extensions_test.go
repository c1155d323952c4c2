package core

import (
	"context"
	"math/rand"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

func TestExpectedRunsBiasesStopping(t *testing.T) {
	// The same frozen agent on the same flat curve must stop later when
	// the user expects many production runs and sooner when few.
	rng := rand.New(rand.NewSource(61))
	base, err := TrainEarlyStopper(StopperConfig{Seed: 61, Horizon: 35}, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	stopAt := func(expectedRuns float64) int {
		s := base
		s.SetLearning(false)
		s.SetEpsilon(0)
		s.SetExpectedRuns(expectedRuns)
		s.Reset()
		// grow then flatten
		for i := 0; i <= 35; i++ {
			perf := 1000.0 + 100*float64(min(i, 8))
			if s.Stop(i, perf) {
				return i
			}
		}
		return 36
	}
	few := stopAt(10)       // amortized over almost nothing: cut losses fast
	many := stopAt(1000000) // a production campaign: keep tuning
	base.SetExpectedRuns(0)
	if few > many {
		t.Fatalf("few-runs stop at %d later than many-runs stop at %d", few, many)
	}
	if few == many {
		t.Logf("bias did not separate this curve (few=%d many=%d); acceptable but weak", few, many)
	}
	if many < 8 {
		t.Fatalf("million-run user stopped at %d, before gains were even exhausted", many)
	}
}

func TestStopBias(t *testing.T) {
	if (StopperConfig{}).stopBias() != 0 {
		t.Fatal("no expected runs should mean no bias")
	}
	up := StopperConfig{ExpectedRuns: 1e6}.stopBias()
	down := StopperConfig{ExpectedRuns: 10}.stopBias()
	if up <= 0 || down >= 0 {
		t.Fatalf("bias signs wrong: up=%v down=%v", up, down)
	}
}

func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(nil, params.Space()); err == nil {
		t.Fatal("nil agent: want error")
	}
	if _, err := NewSession(&TunIO{}, params.Space()); err == nil {
		t.Fatal("incomplete agent: want error")
	}
}

func TestSessionRefinesAcrossRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	space := params.Space()
	sweep := syntheticSweep(space, rng, 300)
	picker, err := TrainSmartPicker(PickerConfig{Seed: 71}, sweep, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	stopper, err := TrainEarlyStopper(StopperConfig{Seed: 72, Horizon: 12}, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(&TunIO{Stopper: stopper, Picker: picker}, space)
	if err != nil {
		t.Fatal(err)
	}

	c := cluster.CoriHaswell(2, 8)
	w := workload.NewMACSio(c.Procs())
	w.Dumps = 3
	kernel, err := tuner.ResolveKernel(tuner.KernelSource{Workload: w, Nprocs: c.Procs()})
	if err != nil {
		t.Fatal(err)
	}
	mkEval := func(seed int64) tuner.BatchEvaluator {
		return tuner.NewTraceEvaluator(kernel, c, 1, seed).Batch(1, nil)
	}
	ctx := context.Background()

	r1, err := sess.RefineBatch(ctx, mkEval(1), 6, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Rounds() != 1 || sess.Best == nil {
		t.Fatal("round not recorded")
	}
	firstBest := sess.BestPerf

	r2, err := sess.RefineBatch(ctx, mkEval(2), 6, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	_ = r1
	// Round 2 starts from round 1's best: its baseline must be near (or
	// above) round 1's best, not back at the defaults.
	if r2.Curve.Baseline() < 0.5*firstBest {
		t.Fatalf("round 2 baseline %.0f regressed to defaults (round 1 best %.0f)",
			r2.Curve.Baseline(), firstBest)
	}
	if sess.BestPerf < firstBest {
		t.Fatal("session best regressed")
	}
	// history accumulates with monotone time and session-level best
	if err := sess.History.Validate(); err != nil {
		t.Fatal(err)
	}
	if sess.History.TotalMinutes() <= r2.Curve.TotalMinutes() {
		t.Fatal("history did not accumulate time across rounds")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
