package tuner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"tunio/internal/metrics"
	"tunio/internal/params"
)

// seededSynthetic mimics a deterministic concurrency-safe evaluator: the
// objective depends only on (assignment, iteration) through SeedFor, like
// the seeded workload evaluators.
type seededSynthetic struct {
	calls int64 // atomic: number of real evaluations performed
}

func (s *seededSynthetic) Evaluate(a *params.Assignment, iteration int) (float64, float64, error) {
	atomic.AddInt64(&s.calls, 1)
	seed := SeedFor(42, iteration, a)
	perf := float64(seed%100000) / 10
	return perf, 0.5, nil
}

// serial is the reference pass the tests compare against: one worker,
// batch order, so even a stateful evaluator sees a fixed call sequence.
func serial(eval EvalFunc) BatchEvaluator { return &Pool{Eval: eval, Workers: 1} }

// run is RunBatch over the serial pass.
func run(cfg Config, eval EvalFunc) (*Result, error) {
	return RunBatch(context.Background(), cfg, serial(eval))
}

func runPipeline(t *testing.T, eval BatchEvaluator) *Result {
	t.Helper()
	res, err := RunBatch(context.Background(), Config{
		Space: params.Space(), PopSize: 8, MaxIterations: 10, Seed: 7,
	}, eval)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func curvesEqual(a, b *Result) bool {
	if len(a.Curve) != len(b.Curve) {
		return false
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			return false
		}
	}
	return a.BestPerf == b.BestPerf && a.Best.String() == b.Best.String()
}

func TestPoolMatchesSerialBitForBit(t *testing.T) {
	ref := runPipeline(t, serial((&seededSynthetic{}).Evaluate))
	for _, workers := range []int{1, 2, 4, 16} {
		par := runPipeline(t, &Pool{Eval: (&seededSynthetic{}).Evaluate, Workers: workers})
		if !curvesEqual(ref, par) {
			t.Fatalf("workers=%d: curve diverged from serial", workers)
		}
	}
}

func TestMemoDeterministicAndCountsHits(t *testing.T) {
	// Memoization intentionally reuses a genome's first measurement
	// (re-measuring would only re-sample noise), so the reference is the
	// memoized serial run: every worker count must reproduce it exactly.
	ref := runPipeline(t, NewMemo(serial((&seededSynthetic{}).Evaluate)))

	inner := &seededSynthetic{}
	memo := NewMemo(&Pool{Eval: inner.Evaluate, Workers: 4})
	res := runPipeline(t, memo)
	if !curvesEqual(ref, res) {
		t.Fatal("memoized parallel curve diverged from memoized serial")
	}
	if res.CacheHits == 0 {
		t.Fatal("GA with elitism should repeat genomes, but no cache hits recorded")
	}
	if res.CacheHits+res.CacheMisses != res.Evaluations {
		t.Fatalf("hits(%d) + misses(%d) != evaluations(%d)",
			res.CacheHits, res.CacheMisses, res.Evaluations)
	}
	if got := int(atomic.LoadInt64(&inner.calls)); got != res.CacheMisses {
		t.Fatalf("inner evaluator ran %d times, want %d (one per miss)", got, res.CacheMisses)
	}
	if ref.Evaluations != res.Evaluations {
		t.Fatalf("evaluation accounting changed: %d vs %d", ref.Evaluations, res.Evaluations)
	}
}

func TestMemoDeduplicatesWithinBatch(t *testing.T) {
	inner := &seededSynthetic{}
	memo := NewMemo(serial(inner.Evaluate))
	def := params.DefaultAssignment(params.Space())
	batch := []*params.Assignment{def, def, def}
	out, err := memo.EvaluateBatch(context.Background(), batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&inner.calls); got != 1 {
		t.Fatalf("duplicate genomes in one batch evaluated %d times, want 1", got)
	}
	if out[0] != out[1] || out[1] != out[2] {
		t.Fatal("duplicate genomes got different results")
	}
	hits, misses := memo.CacheStats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 2/1", hits, misses)
	}
}

func TestSeedForOrderIndependent(t *testing.T) {
	space := params.Space()
	a := params.DefaultAssignment(space)
	b, err := params.FromGenome(space, func() []int {
		g := a.Genome()
		g[0] = (g[0] + 1) % len(space[0].Values)
		return g
	}())
	if err != nil {
		t.Fatal(err)
	}
	if SeedFor(1, 3, a) != SeedFor(1, 3, a) {
		t.Fatal("SeedFor not deterministic")
	}
	if SeedFor(1, 3, a) == SeedFor(1, 3, b) {
		t.Fatal("different genomes produced the same seed")
	}
	if SeedFor(1, 3, a) == SeedFor(1, 4, a) {
		t.Fatal("different iterations produced the same seed")
	}
	if SeedFor(1, 3, a) == SeedFor(2, 3, a) {
		t.Fatal("different base seeds produced the same seed")
	}
}

func TestPoolErrorSmallestIndexWins(t *testing.T) {
	// Distinct assignments let the evaluator fail by batch position: the
	// pool must report the smallest failing index — where a serial pass
	// would have stopped — no matter which worker hit its error first.
	space := params.Space()
	batch := make([]*params.Assignment, 4)
	for i := range batch {
		g := params.DefaultAssignment(space).Genome()
		g[0] = i % len(space[0].Values)
		g[1] = i / len(space[0].Values)
		a, err := params.FromGenome(space, g)
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = a
	}
	failing := map[string]int{batch[1].String(): 1, batch[3].String(): 3}
	eval := func(a *params.Assignment, _ int) (float64, float64, error) {
		if i, ok := failing[a.String()]; ok {
			return 0, 0, fmt.Errorf("boom %d", i)
		}
		return 1, 1, nil
	}
	_, err := (&Pool{Eval: eval, Workers: 4}).EvaluateBatch(context.Background(), batch, 1)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	if be.Index != 1 {
		t.Fatalf("error index = %d, want 1 (smallest failing position)", be.Index)
	}
}

func TestPoolHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	def := params.DefaultAssignment(params.Space())
	batch := []*params.Assignment{def, def, def, def}
	_, err := (&Pool{Eval: (&seededSynthetic{}).Evaluate, Workers: 2}).EvaluateBatch(ctx, batch, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunBatchCancellationFromProgress(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen []metrics.Point
	res, err := RunBatch(ctx, Config{
		Space: params.Space(), PopSize: 4, MaxIterations: 50, Seed: 9,
		Progress: func(p metrics.Point) {
			seen = append(seen, p)
			if p.Iteration >= 3 {
				cancel()
			}
		},
	}, serial((&seededSynthetic{}).Evaluate))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (res=%v)", err, res)
	}
	if len(seen) != 4 { // iterations 0..3 completed before the cancel took effect
		t.Fatalf("progress saw %d points, want 4", len(seen))
	}
}

func TestRunBatchPickerMaskMismatch(t *testing.T) {
	_, err := RunBatch(context.Background(), Config{
		Space: params.Space(), PopSize: 4, MaxIterations: 3, Seed: 5,
		Picker: badPicker{},
	}, serial((&seededSynthetic{}).Evaluate))
	if err == nil {
		t.Fatal("short picker mask silently accepted")
	}
	want := "picker returned a mask of length 2"
	if got := err.Error(); !strings.Contains(got, want) {
		t.Fatalf("error %q does not mention the mask mismatch (%q)", got, want)
	}
}

type badPicker struct{}

func (badPicker) NextSubset(float64, []bool) []bool { return []bool{true, false} }
func (badPicker) Reset()                            {}

// TestFanOutMidBatchCancellation is the cancellation contract of the one
// fan-out, seen through a memo as a tuning run sees it: a cancel landing
// mid-batch stops the feed (the inline worker checks the context before
// every index), surfaces ctx.Err(), commits nothing, and leaks no partial
// results into the cache.
func TestFanOutMidBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	memo := NewMemo(serial(func(*params.Assignment, int) (float64, float64, error) {
		if calls++; calls == 2 {
			cancel()
		}
		return 100, 1, nil
	}))

	space := params.Space()
	batch := make([]*params.Assignment, 6)
	g := params.DefaultAssignment(space).Genome()
	for i := range batch {
		g[0] = i // distinct genomes (SieveBufSize has 8 values)
		a, err := params.FromGenome(space, g)
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = a
	}

	res, err := memo.EvaluateBatch(ctx, batch, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("results committed after cancellation: %v", res)
	}
	if calls != 2 {
		t.Fatalf("evaluated %d configurations, want 2: the cancel lands before the third", calls)
	}
	// A re-run with a live context evaluates every configuration from
	// scratch: zero hits, two full passes of misses.
	if _, err := memo.EvaluateBatch(context.Background(), batch, 1); err != nil {
		t.Fatal(err)
	}
	if hits, misses := memo.CacheStats(); hits != 0 || misses != 2*len(batch) {
		t.Fatalf("cache stats %d hits / %d misses, want 0 / %d", hits, misses, 2*len(batch))
	}
	if calls != 2+len(batch) {
		t.Fatalf("calls = %d, want %d (2 pre-cancel + full re-run)", calls, 2+len(batch))
	}
}

// TestFanOutWorkersAndErrors covers what Pool, the drift controller and the
// training sweep all lean on: every index runs exactly once on any worker
// count, each worker gets its own closure, a cancel while feeding wins over
// results, and of several failures the smallest index is reported.
func TestFanOutWorkersAndErrors(t *testing.T) {
	const n = 37
	for _, workers := range []int{0, 1, 3, 64} {
		var made atomic.Int64
		seen := make([]int32, n)
		err := FanOut(context.Background(), n, workers, NewGate(2), func() func(int) error {
			made.Add(1)
			mine := 0 // per-worker scratch: unsynchronized on purpose, -race watches it
			return func(i int) error {
				mine++
				atomic.AddInt32(&seen[i], 1)
				return nil
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		if workers == 1 && made.Load() != 1 {
			t.Fatalf("one worker built %d closures", made.Load())
		}
		if workers == 64 && made.Load() != n {
			t.Fatalf("workers are capped at n: built %d closures for %d indices", made.Load(), n)
		}
	}

	for _, workers := range []int{1, 4} {
		err := FanOut(context.Background(), n, workers, nil, func() func(int) error {
			return func(i int) error {
				if i == 30 || i == 11 || i == 19 {
					return fmt.Errorf("boom %d", i)
				}
				return nil
			}
		})
		var be *BatchError
		if !errors.As(err, &be) || be.Index != 11 {
			t.Fatalf("workers=%d: err = %v, want the failure of index 11", workers, err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	err := FanOut(ctx, n, 4, nil, func() func(int) error {
		return func(i int) error {
			if i == 5 {
				cancel()
			}
			return errors.New("late failure")
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled to win over evaluation failures", err)
	}
	if err := FanOut(context.Background(), 0, 4, nil, func() func(int) error { return nil }); err != nil {
		t.Fatalf("empty fan-out: %v", err)
	}
}
