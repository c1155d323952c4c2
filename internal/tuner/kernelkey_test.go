package tuner

import (
	"context"
	"strings"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/workload"
)

// TestTraceEvaluatorKernelHash checks that resolving an interpreted kernel
// hashes its trace and binds the stage-cache view and the memo to the hash.
func TestTraceEvaluatorKernelHash(t *testing.T) {
	c := cluster.CoriHaswell(1, 8)
	w, err := workload.ByName("vpic", c.Procs())
	if err != nil {
		t.Fatal(err)
	}
	shrinkWorkload(w)
	prog, err := csrc.Parse(w.(workload.HasCSource).CSource())
	if err != nil {
		t.Fatal(err)
	}
	e := replayOf(t, KernelSource{Prog: prog}, c, 3, 1)
	h := e.kernel.Hash
	if h != replay.TraceKey(e.kernel.Trace) {
		t.Errorf("kernel hash = %q, want its trace's key %q", h, replay.TraceKey(e.kernel.Trace))
	}
	if !e.kernel.Interpreted {
		t.Error("a program kernel must be marked Interpreted")
	}
	if got := e.kernel.View.KernelKey(); got != h {
		t.Errorf("stage-cache view key = %q, want %q", got, h)
	}
	if got := e.Batch(1, nil).key.Load().kernKey; got != h {
		t.Errorf("memo kernel key = %q, want %q", got, h)
	}
}

// TestTraceEvaluatorWorkloadKernelHash checks that a workload model is
// keyed the same way.
func TestTraceEvaluatorWorkloadKernelHash(t *testing.T) {
	c := cluster.CoriHaswell(1, 8)
	w, err := workload.ByName("flash", c.Procs())
	if err != nil {
		t.Fatal(err)
	}
	shrinkWorkload(w)
	e := replayOf(t, KernelSource{Workload: w}, c, 3, 1)
	if h := e.kernel.Hash; h != replay.TraceKey(e.kernel.Trace) || !strings.HasPrefix(h, "trace:") {
		t.Errorf("kernel hash = %q, want its trace's key %q", h, replay.TraceKey(e.kernel.Trace))
	}
	if e.kernel.Interpreted {
		t.Error("a workload-model kernel must not be marked Interpreted")
	}
}

// countingBatch counts how many positions reach the inner evaluator.
type countingBatch struct{ calls int }

func (c *countingBatch) EvaluateBatch(ctx context.Context, batch []*params.Assignment, iteration int) ([]EvalResult, error) {
	c.calls += len(batch)
	out := make([]EvalResult, len(batch))
	for i := range out {
		out[i] = EvalResult{Perf: 1, CostMinutes: 1}
	}
	return out, nil
}

// TestMemoKernelKeyPartitionsCache checks that the kernel key is a real
// component of the memo key: the same genome under a different kernel
// key re-evaluates, and returning to the first key hits the old entry.
func TestMemoKernelKeyPartitionsCache(t *testing.T) {
	inner := &countingBatch{}
	m := NewMemo(inner)
	a := params.DefaultAssignment(params.Space())
	batch := []*params.Assignment{a}
	ctx := context.Background()

	m.SetKernelKey("trace:aaaa")
	if _, err := m.EvaluateBatch(ctx, batch, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EvaluateBatch(ctx, batch, 1); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 1 {
		t.Fatalf("inner calls = %d after same-key repeat, want 1", inner.calls)
	}
	m.SetKernelKey("trace:bbbb")
	if _, err := m.EvaluateBatch(ctx, batch, 2); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 2 {
		t.Fatalf("inner calls = %d after key change, want 2", inner.calls)
	}
	m.SetKernelKey("trace:aaaa")
	if _, err := m.EvaluateBatch(ctx, batch, 3); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 2 {
		t.Fatalf("inner calls = %d after returning to the first key, want 2 (cache hit)", inner.calls)
	}
}
