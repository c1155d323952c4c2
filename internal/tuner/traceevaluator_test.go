package tuner

import (
	"reflect"
	"strings"
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/workload"
)

func shrinkWorkload(w workload.Workload) {
	switch x := w.(type) {
	case *workload.VPIC:
		x.ParticlesPerRank = 16 << 10
		x.ComputeFlops = 1e9
	case *workload.HACC:
		x.ParticlesPerRank = 16 << 10
	case *workload.FLASH:
		x.BlocksPerRank = 8
		x.Unknowns = 3
	case *workload.BDCATS:
		x.ParticlesPerRank = 16 << 10
	case *workload.MACSio:
		x.PartsPerRank = 2
		x.PartBytes = 256 << 10
		x.Dumps = 3
	}
}

// replayOf traces the kernel into private caches and returns its replay
// evaluator on the cluster.
func replayOf(t *testing.T, src KernelSource, c *cluster.Cluster, seed int64, reps int) *TraceEvaluator {
	t.Helper()
	src.Nprocs = c.Procs()
	k, err := ResolveKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	return NewTraceEvaluator(k, c, reps, seed)
}

// TestTraceEvaluatorMatchesCSourceCurves proves the equivalence the staged
// engine promises: a full tuning run scored by trace replay of the
// interpreted C kernel produces a bit-identical curve to one that
// re-interprets the kernel for every evaluation, on all five workloads.
func TestTraceEvaluatorMatchesCSourceCurves(t *testing.T) {
	c := cluster.CoriHaswell(1, 8)
	for _, name := range []string{"vpic", "hacc", "flash", "bdcats", "macsio"} {
		w, err := workload.ByName(name, c.Procs())
		if err != nil {
			t.Fatal(err)
		}
		shrinkWorkload(w)
		prog, err := csrc.Parse(w.(workload.HasCSource).CSource())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg := Config{Space: params.Space(), PopSize: 4, MaxIterations: 3, Seed: 11}

		direct, err := run(cfg, (&SeededCSourceEvaluator{Prog: prog, Cluster: c, Reps: 2, Seed: 11}).Evaluate)
		if err != nil {
			t.Fatalf("%s direct: %v", name, err)
		}
		traced, err := run(cfg, replayOf(t, KernelSource{Prog: prog}, c, 11, 2).Evaluate)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}

		if direct.BestPerf != traced.BestPerf {
			t.Errorf("%s: best perf %v (direct) != %v (traced)", name, direct.BestPerf, traced.BestPerf)
		}
		if !reflect.DeepEqual(direct.Curve, traced.Curve) {
			t.Errorf("%s: curves differ:\n direct %+v\n traced %+v", name, direct.Curve, traced.Curve)
		}
	}
}

// TestTraceEvaluatorMatchesSeededWorkloadEvaluator pins the same for the Go
// workload forms: trace replay returns bit-equal (perf, cost) to the live
// reference under SeedFor-derived seeds.
func TestTraceEvaluatorMatchesSeededWorkloadEvaluator(t *testing.T) {
	c := cluster.CoriHaswell(2, 8)
	for _, name := range []string{"vpic", "hacc", "flash", "bdcats", "macsio"} {
		w, err := workload.ByName(name, c.Procs())
		if err != nil {
			t.Fatal(err)
		}
		shrinkWorkload(w)
		direct := &SeededWorkloadEvaluator{Workload: w, Cluster: c, Reps: 3, Seed: 5}
		traced := replayOf(t, KernelSource{Workload: w}, c, 5, 3)

		assignments := []*params.Assignment{params.DefaultAssignment(params.Space())}
		for i, pairs := range []map[string]int{
			{params.CollectiveWrite: 1, params.CBNodes: 4},
			{params.Alignment: 4, params.StripingFactor: 7},
			{params.ChunkCache: 2, params.MDCConfig: 0, params.CollMetadataWrite: 1},
		} {
			a := params.DefaultAssignment(params.Space())
			for n, idx := range pairs {
				if err := a.SetIndex(n, idx); err != nil {
					t.Fatalf("case %d: %v", i, err)
				}
			}
			assignments = append(assignments, a)
		}
		for i, a := range assignments {
			for _, iter := range []int{0, 3} {
				p1, c1, err := direct.Evaluate(a, iter)
				if err != nil {
					t.Fatalf("%s direct: %v", name, err)
				}
				p2, c2, err := traced.Evaluate(a, iter)
				if err != nil {
					t.Fatalf("%s traced: %v", name, err)
				}
				if p1 != p2 || c1 != c2 {
					t.Errorf("%s case %d iter %d: direct (%v, %v) != traced (%v, %v)",
						name, i, iter, p1, c1, p2, c2)
				}
			}
		}
		stats := traced.kernel.View.Stats()
		if stats.WireMisses == 0 || stats.PlanMisses == 0 {
			t.Errorf("%s: stage cache never exercised: %+v", name, stats)
		}
	}
}

// TestResolveKernelRecordingFailure: a kernel that fails to record has no
// trace, so there is no evaluator to build; ResolveKernel says why. (The
// §III-B recovery onto the full application lives in tunio.Engine, which
// owns both sources.)
func TestResolveKernelRecordingFailure(t *testing.T) {
	prog, err := csrc.Parse(`int main() { frobnicate(); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	store := replay.NewKernelStore()
	k, err := ResolveKernel(KernelSource{Prog: prog, Nprocs: 2, Store: store})
	if err == nil || k != nil {
		t.Fatalf("broken program resolved: kernel %+v err %v", k, err)
	}
	if !strings.Contains(err.Error(), "trace recording") {
		t.Fatalf("err = %v, want the recording failure", err)
	}
	if store.Len() != 0 {
		t.Fatal("a failed recording was published to the kernel store")
	}
	if _, err := ResolveKernel(KernelSource{Nprocs: 2}); err == nil {
		t.Fatal("no Workload and no Prog: want error")
	}
}
