package tunio

import (
	"testing"
)

// A daemon that tunes a catalogue of kernels never evicts one: the warm
// working set — here the ten specs of five named kernels at 4×32 that
// bench/'s warm_repeat re-submits and the five kernels at 2×8 of its
// burst_small — fits the stage cache and the kernel store with room to
// spare, so warm jobs keep every hit they had before caches could forget.
// The stage cache's budget is 128 MiB (internal/replay's stageBudget); the
// set must fit in half of it.
func TestWarmSetsNeverEvict(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes fifteen jobs at bench/'s sizes")
	}
	kernels := []string{"vpic", "hacc", "flash", "macsio", "bdcats"}
	eng := NewEngine(EngineOptions{Workers: 2})
	for k := 0; k < 10; k++ {
		tuneOn(t, eng, JobSpec{
			Workload: kernels[k%len(kernels)],
			Nodes:    4, ProcsPerNode: 32,
			PopSize: 16, MaxIterations: 6, Reps: 3,
			Seed:        1000 + 37*int64(k),
			Parallelism: 2,
		})
	}
	for k := 0; k < len(kernels); k++ {
		tuneOn(t, eng, JobSpec{
			Workload: kernels[k],
			Nodes:    2, ProcsPerNode: 8,
			PopSize: 8, MaxIterations: 6, Reps: 1,
			Seed:        1000 + 37*int64(k),
			Parallelism: 1,
		})
	}
	st := eng.Stats()
	t.Logf("stage cache holds %d kernels in %.1f MiB; kernel store %d traces in %.1f MiB",
		st.Stage.Kernels, float64(st.Stage.HeldBytes)/(1<<20), st.Kernels.Kernels, float64(st.Kernels.HeldBytes)/(1<<20))
	if st.Stage.Evicted != 0 || st.Kernels.Evicted != 0 {
		t.Fatalf("warm set evicted %d stage kernels and %d stored traces", st.Stage.Evicted, st.Kernels.Evicted)
	}
	if st.Stage.Kernels != 10 || st.Kernels.Kernels != 10 {
		t.Fatalf("%d stage kernels, %d stored traces: want five kernels at each of two shapes", st.Stage.Kernels, st.Kernels.Kernels)
	}
	if half := int64(128 << 20 / 2); st.Stage.HeldBytes > half {
		t.Fatalf("warm set holds %d bytes: more than half the stage budget", st.Stage.HeldBytes)
	}
}
