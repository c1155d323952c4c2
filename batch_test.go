package tunio

import (
	"context"
	"errors"
	"testing"

	"tunio/internal/metrics"
)

// smallTune returns options sized for fast end-to-end runs.
func smallTune(workload string, parallelism int) TuneOptions {
	return TuneOptions{
		Workload: workload,
		Nodes:    1, ProcsPerNode: 8,
		PopSize: 4, MaxIterations: 3, Reps: 1, Seed: 11,
		Parallelism: parallelism,
	}
}

func sameResult(a, b *Result) bool {
	if len(a.Curve) != len(b.Curve) || len(a.SubsetTrace) != len(b.SubsetTrace) {
		return false
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			return false
		}
	}
	for i := range a.SubsetTrace {
		if len(a.SubsetTrace[i]) != len(b.SubsetTrace[i]) {
			return false
		}
		for j := range a.SubsetTrace[i] {
			if a.SubsetTrace[i][j] != b.SubsetTrace[i][j] {
				return false
			}
		}
	}
	return a.BestPerf == b.BestPerf && a.Best.String() == b.Best.String()
}

// TestTuneParallelDeterminism is the engine's core guarantee end to end:
// Parallelism is a worker count and nothing else. For every paper workload
// the default (0, one worker per CPU) and a four-worker run reproduce the
// one-worker run bit for bit — same curve, same subset trace, same best —
// and all of them are scored by memoized staged replay.
func TestTuneParallelDeterminism(t *testing.T) {
	for _, w := range []string{"vpic", "hacc", "flash", "bdcats", "macsio"} {
		t.Run(w, func(t *testing.T) {
			serial, err := Tune(smallTune(w, 1))
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{0, 4} {
				got, err := Tune(smallTune(w, par))
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(serial, got) {
					t.Fatalf("parallelism=%d diverged from the one-worker run", par)
				}
				if info := got.EngineInfo; !info.TraceReady || info.KernelHash == "" || info.MemoMisses == 0 {
					t.Fatalf("parallelism=%d was not scored by memoized replay: %+v", par, info)
				}
			}
		})
	}
}

func TestTuneMemoizationCountsHits(t *testing.T) {
	res, err := Tune(TuneOptions{
		Workload: "macsio",
		Nodes:    1, ProcsPerNode: 8,
		PopSize: 6, MaxIterations: 8, Reps: 1, Seed: 4,
		Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Fatal("elitism repeats the best genome every generation; want cache hits > 0")
	}
	if res.CacheHits+res.CacheMisses != res.Evaluations {
		t.Fatalf("hits(%d)+misses(%d) != evaluations(%d)",
			res.CacheHits, res.CacheMisses, res.Evaluations)
	}
}

func TestTuneCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := smallTune("vpic", 2)
	opts.MaxIterations = 50
	opts.Context = ctx
	var points int
	opts.Progress = func(p metrics.Point) {
		points++
		if p.Iteration >= 2 {
			cancel()
		}
	}
	_, err := Tune(opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if points < 3 {
		t.Fatalf("progress saw only %d points before cancel", points)
	}
}

func TestTuneProgressMatchesCurve(t *testing.T) {
	var streamed []metrics.Point
	opts := smallTune("flash", 1)
	opts.Progress = func(p metrics.Point) { streamed = append(streamed, p) }
	res, err := Tune(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.Curve) {
		t.Fatalf("progress streamed %d points, curve has %d", len(streamed), len(res.Curve))
	}
	for i := range streamed {
		if streamed[i] != res.Curve[i] {
			t.Fatalf("streamed point %d differs from curve", i)
		}
	}
}
