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
	v := kernel(b, "vpic").(*workload.VPIC)
	v.ParticlesPerRank = 16 << 10
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
	benchTables(b, true)
}

// BenchmarkStagedExecColdTables is the same replay with every table slot
// empty — each iteration executes a plan nothing has run before, so it
// splits every extent and publishes every table: what the first genome
// under a (wire plan, layout) pays. The contrast with WarmTables is what
// stage 3a saves; the contrast with the pre-3a engine is publish's copies.
func BenchmarkStagedExecColdTables(b *testing.B) {
	benchTables(b, false)
}

func benchTables(b *testing.B, warm bool) {
	a := params.DefaultAssignment(params.Space())
	if err := a.SetIndex(params.StripingFactor, 6); err != nil {
		b.Fatal(err)
	}
	s := a.Settings()
	lower, _ := tableHarness(b, benchKernel(b), a)
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
