package replay

import (
	"errors"
	"math"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// within is a time budget as an ExecWhile continuation test: keep going
// while the stack's clock has not passed budget seconds. Every layer only
// ever advances the clock, so a partial time above the budget proves the
// full run would finish above it too.
func within(st *workload.Stack, budget float64) func() bool {
	return func() bool { return st.Sim.Now() <= budget }
}

// budgetHarness records flash once and returns a wire plan plus a fresh
// stack builder.
func budgetHarness(t *testing.T) (*WirePlan, func() *workload.Stack) {
	t.Helper()
	c := cluster.CoriHaswell(2, 8)
	w, err := workload.ByName("flash", c.Procs())
	if err != nil {
		t.Fatal(err)
	}
	a := params.DefaultAssignment(params.Space())
	recStack, err := workload.BuildStack(c, a.Settings(), 1)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := Record(w, recStack)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := lowerFresh(trace, a.Settings(), c.ProcsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	return wp, func() *workload.Stack {
		st, err := workload.BuildStack(c, a.Settings(), 7)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
}

// TestExecBudgetInfIdentical pins that an infinite budget reproduces
// Exec bit for bit — same clock, same counters.
func TestExecBudgetInfIdentical(t *testing.T) {
	wp, fresh := budgetHarness(t)
	var rt Runtime

	plain := fresh()
	if err := rt.Exec(wp, plain); err != nil {
		t.Fatal(err)
	}
	budgeted := fresh()
	if err := rt.ExecWhile(wp, budgeted, within(budgeted, math.Inf(1))); err != nil {
		t.Fatal(err)
	}
	if plain.Sim.Now() != budgeted.Sim.Now() {
		t.Fatalf("clock differs: %v vs %v", plain.Sim.Now(), budgeted.Sim.Now())
	}
	reportsEqual(t, "inf-budget", plain.Sim.Report, budgeted.Sim.Report)
}

// TestExecBudgetAborts pins the pruning contract: a budget below the
// full runtime aborts with ErrBudgetExceeded, the partial clock already
// proves the candidate is over budget, and a budget at or above the
// full runtime never fires.
func TestExecBudgetAborts(t *testing.T) {
	wp, fresh := budgetHarness(t)
	var rt Runtime

	full := fresh()
	if err := rt.Exec(wp, full); err != nil {
		t.Fatal(err)
	}
	total := full.Sim.Now()

	budget := total / 2
	partial := fresh()
	err := rt.ExecWhile(wp, partial, within(partial, budget))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if now := partial.Sim.Now(); now <= budget || now > total {
		t.Fatalf("aborted clock %v, want in (%v, %v]", now, budget, total)
	}

	// Exactly the full runtime is within budget (the check is strict).
	exact := fresh()
	if err := rt.ExecWhile(wp, exact, within(exact, total)); err != nil {
		t.Fatalf("budget == runtime must pass, got %v", err)
	}
}

// TestExecWhile pins the generalized abort: a nil keep is Exec op for
// op, keep=false aborts before the first op, and a keep derived from a
// monotone metric aborts at the first op boundary past its threshold, on
// every run alike.
func TestExecWhile(t *testing.T) {
	wp, fresh := budgetHarness(t)
	var rt Runtime

	plain := fresh()
	if err := rt.Exec(wp, plain); err != nil {
		t.Fatal(err)
	}
	total := plain.Sim.Now()

	nilKeep := fresh()
	if err := rt.ExecWhile(wp, nilKeep, nil); err != nil {
		t.Fatal(err)
	}
	if nilKeep.Sim.Now() != total {
		t.Fatalf("nil keep clock %v, want %v", nilKeep.Sim.Now(), total)
	}
	reportsEqual(t, "nil-keep", plain.Sim.Report, nilKeep.Sim.Report)

	never := fresh()
	err := rt.ExecWhile(wp, never, func() bool { return false })
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("keep=false err = %v, want ErrBudgetExceeded", err)
	}
	if now := never.Sim.Now(); now != 0 {
		t.Fatalf("keep=false ran the plan: clock %v, want 0", now)
	}

	budget := total / 2
	first, second := fresh(), fresh()
	errA := rt.ExecWhile(wp, first, within(first, budget))
	errB := rt.ExecWhile(wp, second, within(second, budget))
	if !errors.Is(errA, ErrBudgetExceeded) || !errors.Is(errB, ErrBudgetExceeded) {
		t.Fatalf("errs = %v / %v, want ErrBudgetExceeded", errA, errB)
	}
	if first.Sim.Now() != second.Sim.Now() {
		t.Fatalf("abort points differ: %v vs %v", first.Sim.Now(), second.Sim.Now())
	}
}
