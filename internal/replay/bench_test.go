package replay

import (
	"testing"

	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// benchKernel is the small VPIC dump every replay micro-benchmark runs.
func benchKernel(b *testing.B) workload.Workload {
	b.Helper()
	return vpicDump(b, 16<<10)
}

func vpicDump(b *testing.B, particlesPerRank int64) workload.Workload {
	b.Helper()
	v := kernel(b, "vpic").(*workload.VPIC)
	v.ParticlesPerRank = particlesPerRank
	v.ComputeFlops = 1e9
	return v
}

// benchPlan records benchKernel and lowers it for the default
// configuration, returning everything a replay loop needs.
func benchPlan(b *testing.B) (*cluster.Cluster, params.StackSettings, *WirePlan) {
	b.Helper()
	a := params.DefaultAssignment(params.Space())
	lower, _ := tableHarness(b, benchKernel(b), a)
	return cluster.CoriHaswell(2, 8), a.Settings(), lower()
}

// BenchmarkStagedExecPooled is the inner loop of a TraceEvaluator rep:
// pooled stack reset plus wire-plan execution (under the default layout,
// one stripe; from the second iteration on its phase tables are warm).
// B/op is the allocation discipline figure the staged engine is tuned for.
func BenchmarkStagedExecPooled(b *testing.B) {
	c, s, wp := benchPlan(b)
	pool := workload.NewStackPool(c)
	var rt Runtime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := pool.Get(s, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Exec(wp, st); err != nil {
			b.Fatal(err)
		}
		pool.Put(st)
	}
}

// BenchmarkStagedExecWarmTables is BenchmarkStagedExecPooled under a
// striped layout with every phase table already published: the steady
// state of a tuning session, where stage 3 charges tables instead of
// splitting extents.
func BenchmarkStagedExecWarmTables(b *testing.B) {
	benchTables(b, true, false)
}

// BenchmarkStagedExecWarmTablesCollective is WarmTables with every data
// transfer collective, a 1 MiB buffer on two aggregators and a dump 16
// times the size, so each 16 MiB variable goes out in eight two-phase
// rounds: the tables charged are the rounds', and what is left of a round
// is its shuffle and the charge itself.
func BenchmarkStagedExecWarmTablesCollective(b *testing.B) {
	benchTables(b, true, true)
}

// BenchmarkStagedExecColdTables is the same replay with every table slot
// empty — each iteration executes a plan nothing has run before, so it
// splits every extent and publishes every table: what the first genome
// under a (wire plan, layout) pays. The contrast with WarmTables is what
// stage 3a saves; the contrast with the pre-3a engine is publish's copies.
func BenchmarkStagedExecColdTables(b *testing.B) {
	benchTables(b, false, false)
}

func benchTables(b *testing.B, warm, collective bool) {
	a := params.DefaultAssignment(params.Space())
	idx := map[string]int{params.StripingFactor: 6}
	if collective {
		idx[params.CollectiveWrite], idx[params.CBNodes], idx[params.CBBufferSize] = 1, 1, 0
	}
	for name, i := range idx {
		if err := a.SetIndex(name, i); err != nil {
			b.Fatal(err)
		}
	}
	s := a.Settings()
	w := benchKernel(b)
	if collective {
		w = vpicDump(b, 256<<10)
	}
	lower, _ := tableHarness(b, w, a)
	pool := workload.NewStackPool(cluster.CoriHaswell(2, 8))
	var rt Runtime
	// Lowering shares the stack plan's extents, so a plan per iteration is
	// cheap to hold and keeps lowering off the clock without StopTimer.
	plans := make([]*WirePlan, 1)
	if !warm {
		plans = make([]*WirePlan, b.N)
	}
	for i := range plans {
		plans[i] = lower()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := pool.Get(s, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Exec(plans[i%len(plans)], st); err != nil {
			b.Fatal(err)
		}
		pool.Put(st)
	}
}

// BenchmarkStagedExecFreshStack is the same replay without stack pooling —
// the allocation contrast that motivates it.
func BenchmarkStagedExecFreshStack(b *testing.B) {
	c, s, wp := benchPlan(b)
	var rt Runtime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := workload.BuildStack(c, s, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Exec(wp, st); err != nil {
			b.Fatal(err)
		}
	}
}

var stackPlanSink *StackPlan

// BenchmarkBuildStackPlan prices one stage-1 miss — what a cold job pays
// per distinct plan projection — on the four trace shapes that stress it
// differently: contiguous datasets (vpic), chunked ones with
// read-modify-write (flash), the read side (bdcats) and many small datasets
// (macsio), each at its default size for 16 ranks under the default
// configuration.
func BenchmarkBuildStackPlan(b *testing.B) {
	c := cluster.CoriHaswell(2, 8)
	s := params.DefaultAssignment(params.Space()).Settings()
	for _, name := range []string{"vpic", "flash", "bdcats", "macsio"} {
		st, err := workload.BuildStack(c, s, 1)
		if err != nil {
			b.Fatal(err)
		}
		trace, err := Record(kernel(b, name), st)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sp, err := BuildStackPlan(trace, s.HDF5)
				if err != nil {
					b.Fatal(err)
				}
				stackPlanSink = sp
			}
		})
	}
}
