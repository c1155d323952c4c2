package tunio

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

// sharedSpec is a session shape small enough to run in tests but large
// enough that the GA revisits parameter projections, so cache sharing has
// something to share.
func sharedSpec(seed int64) JobSpec {
	return JobSpec{
		Workload: "macsio",
		Nodes:    2, ProcsPerNode: 8,
		PopSize: 16, MaxIterations: 12, Reps: 1,
		Seed:        seed,
		Parallelism: 2,
	}
}

// The acceptance test for cross-session sharing: two sequential sessions
// tuning the same workload with different seeds. The second must adopt
// the first's recorded trace from the kernel store, beat 50% stage-cache
// hit rate (and the first session's rate), and still produce a curve
// bit-identical to a solo Tune with the same seed — sharing must be pure
// speedup, never a behavior change.
func TestEngineCrossSessionSharing(t *testing.T) {
	eng := NewEngine(EngineOptions{Workers: 4})

	run1, err := eng.Tune(context.Background(), sharedSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := run1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res1.EngineInfo.KernelStoreHit {
		t.Fatal("first session cannot hit an empty kernel store")
	}
	if !res1.EngineInfo.TraceReady {
		t.Fatalf("first session: trace not ready: %s", res1.EngineInfo.PrepareErr)
	}

	run2, err := eng.Tune(context.Background(), sharedSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := run2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.EngineInfo.KernelStoreHit {
		t.Fatal("second session did not reuse the stored kernel trace")
	}
	if res2.EngineInfo.KernelHash != res1.EngineInfo.KernelHash {
		t.Fatalf("kernel hash diverged: %q vs %q", res2.EngineInfo.KernelHash, res1.EngineInfo.KernelHash)
	}
	rate1, rate2 := res1.EngineInfo.StageStats.HitRate(), res2.EngineInfo.StageStats.HitRate()
	if rate2 <= 0.5 {
		t.Fatalf("second session stage-cache hit rate = %.2f, want > 0.5 (stats %+v)", rate2, res2.EngineInfo.StageStats)
	}
	if rate2 <= rate1 {
		t.Fatalf("sharing did not help: session hit rates %.2f -> %.2f", rate1, rate2)
	}

	solo, err := Tune(TuneOptions{
		Workload: "macsio",
		Nodes:    2, ProcsPerNode: 8,
		PopSize: 16, MaxIterations: 12, Reps: 1,
		Seed:        9,
		Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Curve, solo.Curve) {
		t.Fatal("served curve differs from a solo Tune with the same seed")
	}
	if !reflect.DeepEqual(res2.Best.Genome(), solo.Best.Genome()) {
		t.Fatal("served best configuration differs from a solo Tune with the same seed")
	}

	st := eng.Stats()
	if st.SessionsDone != 2 || st.SessionsActive != 0 {
		t.Fatalf("engine stats = %+v, want 2 done / 0 active", st)
	}
	if st.Kernels.Kernels != 1 || st.Kernels.Hits != 1 {
		t.Fatalf("kernel store stats = %+v, want 1 kernel / 1 hit", st.Kernels)
	}
}

// Ordered progress: a subscriber that arrives after the session finished
// still replays every curve point in order.
func TestRunEventsReplayOrdered(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	spec := sharedSpec(5)
	spec.PopSize, spec.MaxIterations = 6, 4
	run, err := eng.Tune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var got Curve
	for p := range run.Events(context.Background()) {
		got = append(got, p)
	}
	if !reflect.DeepEqual(got, res.Curve) {
		t.Fatalf("streamed %d points, result curve has %d; sequences differ", len(got), len(res.Curve))
	}
	if pts := run.Points(0); !reflect.DeepEqual(Curve(pts), res.Curve) {
		t.Fatal("Points(0) does not reproduce the curve")
	}
	if pts := run.Points(len(res.Curve) + 5); pts != nil {
		t.Fatal("Points past the end must return nil")
	}
}

func TestEngineCancel(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	spec := sharedSpec(7)
	spec.MaxIterations = 200
	spec.Reps = 3
	run, err := eng.Tune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let at least the baseline land so cancellation happens mid-run.
	deadline := time.After(10 * time.Second)
	for len(run.Points(0)) == 0 {
		select {
		case <-deadline:
			t.Fatal("no progress within 10s")
		case <-time.After(time.Millisecond):
		}
	}
	run.Cancel()
	res, err := run.Wait()
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: res=%v err=%v, want nil + context.Canceled", res, err)
	}
	st := eng.Stats()
	if st.SessionsCanceled != 1 {
		t.Fatalf("engine stats = %+v, want 1 canceled", st)
	}
}

func TestEngineTenantQuota(t *testing.T) {
	eng := NewEngine(EngineOptions{TenantQuota: 1})
	long := sharedSpec(11)
	long.MaxIterations = 500
	long.Reps = 3
	long.Tenant = "acme"
	run1, err := eng.Tune(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Tune(context.Background(), long); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second session for the tenant: err = %v, want ErrQuotaExceeded", err)
	}
	// Another tenant is unaffected by acme's quota.
	other := sharedSpec(12)
	other.PopSize, other.MaxIterations = 4, 2
	other.Tenant = "beta"
	run2, err := eng.Tune(context.Background(), other)
	if err != nil {
		t.Fatalf("other tenant blocked: %v", err)
	}
	if _, err := run2.Wait(); err != nil {
		t.Fatal(err)
	}
	run1.Cancel()
	if _, err := run1.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The slot frees on completion.
	retry := sharedSpec(13)
	retry.PopSize, retry.MaxIterations = 4, 2
	retry.Tenant = "acme"
	run3, err := eng.Tune(context.Background(), retry)
	if err != nil {
		t.Fatalf("slot not released after cancellation: %v", err)
	}
	if _, err := run3.Wait(); err != nil {
		t.Fatal(err)
	}
}

// unboundedIOLoop is scripts/test_cli.sh's tr007.c: the loop counts away
// from its bound, which the interval analysis proves.
const unboundedIOLoop = `
int main() {
    int i;
    char buf[16];
    FILE *fp = fopen("/scratch/div.bin", "w");
    for (i = 0; i < 8; i--) {
        fwrite(buf, 4, 1, fp);
    }
    fclose(fp);
    return 0;
}
`

func TestEngineValidation(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"unknown workload", JobSpec{Workload: "nope"}, "unknown workload"},
		{"no kernel", JobSpec{}, "needs a Workload name or C Source"},
		{"both kernels", JobSpec{Workload: "vpic", Source: "int main() { return 0; }"}, "mutually exclusive"},
		{"agent+heuristic", JobSpec{Workload: "vpic", Agent: &TunIO{}, Heuristic: true}, "mutually exclusive"},
		{"bad source", JobSpec{Source: "int main( {"}, "parsing source"},
		{"unknown fix", JobSpec{Workload: "vpic", Fix: map[string]int64{"warp_drive": 1}}, "unknown parameter"},
		{"bad fix value", JobSpec{Workload: "vpic", Fix: map[string]int64{"striping_factor": -5}}, "not in the parameter's list"},
		{"unbounded kernel", JobSpec{Source: unboundedIOLoop, Discover: true}, "TR007"},
	}
	for _, tc := range cases {
		_, err := eng.Tune(ctx, tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if st := eng.Stats(); st.SessionsStarted != 0 {
		t.Fatalf("rejected jobs must not count as started: %+v", st)
	}
}

func TestEngineFixOverrides(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	spec := sharedSpec(17)
	spec.PopSize, spec.MaxIterations = 6, 4
	spec.Fix = map[string]int64{"striping_factor": 96, "romio_cb_write": 0}
	run, err := eng.Tune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Best.Value("striping_factor"); got != 96 {
		t.Fatalf("striping_factor = %d, want pinned 96", got)
	}
	if got := res.Best.Value("romio_cb_write"); got != 0 {
		t.Fatalf("romio_cb_write = %d, want pinned 0", got)
	}
}

// A C-source job runs end to end through the engine, and a second engine
// session with the same source adopts its stored trace.
func TestEngineSourceJob(t *testing.T) {
	w := workload.NewMACSio(16)
	w.Dumps = 1
	w.PartBytes = 64 << 10
	src := w.CSource()

	eng := NewEngine(EngineOptions{})
	spec := JobSpec{
		Source: src,
		Nodes:  2, ProcsPerNode: 8,
		PopSize: 4, MaxIterations: 3, Reps: 1,
		Seed:        21,
		Parallelism: 2,
	}
	run, err := eng.Tune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.EngineInfo.TraceReady {
		t.Fatalf("source job: trace not ready: %s", res.EngineInfo.PrepareErr)
	}
	if h := res.EngineInfo.KernelHash; !strings.HasPrefix(h, "trace:") {
		t.Fatalf("kernel hash = %q, want a trace: key", h)
	}
	if res.BestPerf <= 0 {
		t.Fatal("no perf measured")
	}

	spec.Seed = 22
	run2, err := eng.Tune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := run2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.EngineInfo.KernelStoreHit {
		t.Fatal("second source session did not reuse the stored trace")
	}
}

// soloResult runs the spec on an engine nothing else has touched.
func soloResult(t *testing.T, spec JobSpec) *Result {
	t.Helper()
	return tuneOn(t, NewEngine(EngineOptions{}), spec)
}

func tuneOn(t *testing.T, eng *Engine, spec JobSpec) *Result {
	t.Helper()
	run, err := eng.Tune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.EngineInfo.TraceReady {
		t.Fatalf("trace not ready: %s", res.EngineInfo.PrepareErr)
	}
	return res
}

// Two cluster shapes with the same process count share a recorded trace
// (it is ppn-free) but must not share wire plans: lowering bakes ppn into
// the metadata-read extents and the aggregator node count. A 4×4 job served
// after a 2×8 job on one engine must return the curve a fresh engine does.
func TestEngineClusterShapesDoNotShareWirePlans(t *testing.T) {
	spec := JobSpec{
		Workload: "vpic",
		Nodes:    2, ProcsPerNode: 8,
		PopSize: 8, MaxIterations: 6, Reps: 1,
		Seed:        5,
		Parallelism: 2,
	}
	eng := NewEngine(EngineOptions{})
	tuneOn(t, eng, spec)

	spec.Nodes, spec.ProcsPerNode = 4, 4
	second := tuneOn(t, eng, spec)
	if !second.EngineInfo.KernelStoreHit {
		t.Fatal("the 4x4 job did not reuse the 2x8 job's trace: the test no longer exercises shared wire keys")
	}
	solo := soloResult(t, spec)
	if !reflect.DeepEqual(second.Curve, solo.Curve) {
		t.Fatalf("4x4 after 2x8 on one engine:\n got  %v\n solo %v", second.Curve, solo.Curve)
	}
	if second.BestPerf != solo.BestPerf {
		t.Fatalf("best %v, solo %v", second.BestPerf, solo.BestPerf)
	}
}

// Two programs can issue the same calls with the same byte counts and
// still record different traces: FLASH with 32 blocks of 8×8×17 cells and
// with 34 blocks of 8×8×16 differ in dataset shape only. The kernel hash
// keeps them apart, so neither is served the other's trace and curve.
func TestEngineDistinctTracesKeptApart(t *testing.T) {
	source := func(blocks, nzb int64) string {
		return (&workload.FLASH{Procs: 16, BlocksPerRank: blocks, NXB: 8, NYB: 8, NZB: nzb,
			Unknowns: 6, Steps: 1, ComputeFlops: 1e9, Path: "/scratch/flash.h5"}).CSource()
	}
	first, second := sourceSpec(source(32, 17), false), sourceSpec(source(34, 16), false)
	first.PopSize, first.MaxIterations, second.PopSize, second.MaxIterations = 8, 5, 8, 5

	eng := NewEngine(EngineOptions{})
	a, b := tuneOn(t, eng, first), tuneOn(t, eng, second)
	for _, c := range []struct {
		name   string
		spec   JobSpec
		served *Result
	}{{"32x17", first, a}, {"34x16", second, b}} {
		solo := soloResult(t, c.spec)
		if !reflect.DeepEqual(c.served.Curve, solo.Curve) {
			t.Fatalf("%s on the shared engine:\n got  %v\n solo %v", c.name, c.served.Curve, solo.Curve)
		}
	}
	if a.EngineInfo.KernelHash == b.EngineInfo.KernelHash {
		t.Fatalf("both programs keyed %q", a.EngineInfo.KernelHash)
	}
}

// The converse: two sources that record the same trace are one kernel. A
// comment and a renamed local make a different store entry and the same
// stage-cache kernel, so the second job builds no plan and still gets the
// curve a fresh engine gives it.
func TestEngineEqualTracesShareAKernel(t *testing.T) {
	src := smallMACSio(t, "", "")
	if !strings.Contains(src, "quality") {
		t.Fatal("fixture drifted: MACSio source has no local named quality")
	}
	renamed := "// the same program, spelled differently\n" + strings.ReplaceAll(src, "quality", "mesh_quality")
	eng := NewEngine(EngineOptions{})
	a := tuneOn(t, eng, sourceSpec(src, false))
	before := eng.Stats()
	b := tuneOn(t, eng, sourceSpec(renamed, false))
	after := eng.Stats()
	if b.EngineInfo.KernelStoreHit || after.Kernels.Kernels != 2 {
		t.Fatalf("store hit %v, %d stored kernels: the two sources must be two store entries", b.EngineInfo.KernelStoreHit, after.Kernels.Kernels)
	}
	if a.EngineInfo.KernelHash != b.EngineInfo.KernelHash {
		t.Fatalf("kernel hashes %q and %q, want one", a.EngineInfo.KernelHash, b.EngineInfo.KernelHash)
	}
	if after.Stage.PlanDistinct != before.Stage.PlanDistinct || after.Stage.PlanMisses != before.Stage.PlanMisses {
		t.Fatalf("stage stats %+v -> %+v: the second source built plans of its own", before.Stage, after.Stage)
	}
	if solo := soloResult(t, sourceSpec(renamed, false)); !reflect.DeepEqual(b.Curve, solo.Curve) {
		t.Fatalf("renamed source on the shared engine:\n got  %v\n solo %v", b.Curve, solo.Curve)
	}
}

// A kernel is named by its content and the process count alone: jobs that
// pin different parameters tune different spaces over the one recording.
func TestEngineFixPinsShareARecording(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	spec := sourceSpec(smallMACSio(t, "", ""), false)
	spec.Fix = map[string]int64{params.CollectiveWrite: 1}
	first := tuneOn(t, eng, spec)
	spec.Fix = map[string]int64{params.StripingFactor: 8}
	second := tuneOn(t, eng, spec)
	if first.EngineInfo.KernelStoreHit || !second.EngineInfo.KernelStoreHit {
		t.Fatalf("store hits %v then %v, want a recording then a hit", first.EngineInfo.KernelStoreHit, second.EngineInfo.KernelStoreHit)
	}
	if first.EngineInfo.KernelHash != second.EngineInfo.KernelHash {
		t.Fatalf("kernel hashes %q then %q, want one", first.EngineInfo.KernelHash, second.EngineInfo.KernelHash)
	}
	if st := eng.Stats(); st.Kernels.Kernels != 1 {
		t.Fatalf("%d stored kernels, want 1", st.Kernels.Kernels)
	}
}

// A compute phase that overflows to +Inf fails its job, one-shot and online,
// like any kernel that does not record: it used to pass the sign check and
// panic the simulation on the session goroutine, taking the process down.
func TestEngineRefusesNonFiniteCompute(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	for _, online := range []bool{false, true} {
		run, err := eng.Tune(context.Background(), sourceSpec(`int main() { compute_flops(1e308 * 10.0); return 0; }`, online))
		if err != nil {
			t.Fatalf("online=%v: the program parses, submission must succeed: %v", online, err)
		}
		if res, err := run.Wait(); res != nil || !errors.Is(err, ErrUntraceable) || !strings.Contains(err.Error(), "cinterp: compute_flops(+Inf)") {
			t.Fatalf("online=%v: res=%v err=%v, want nil + ErrUntraceable around the interpreter's refusal", online, res, err)
		}
	}
	if st := eng.Stats(); st.SessionsFailed != 2 || st.Kernels.Kernels != 0 {
		t.Fatalf("engine stats %+v, want 2 failed, nothing stored", st)
	}
}

// Stage 3's phase tables show up in a session's own stage stats and in the
// engine-wide ones.
func TestEngineReportsServiceStats(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	res := tuneOn(t, eng, sharedSpec(3))
	own := res.EngineInfo.StageStats
	if own.ServiceHits == 0 || own.ServiceMisses == 0 {
		t.Fatalf("session stage stats: %+v, want table hits and builds", own)
	}
	if all := eng.Stats().Stage; all.ServiceHits != own.ServiceHits || all.ServiceMisses != own.ServiceMisses || all.ServiceFallbacks != own.ServiceFallbacks {
		t.Fatalf("engine-wide %+v != the only session's %+v", all, own)
	}
	// Artifacts held against projection keys answered: a tune visits many
	// plan projections that leave the kernel's extents alone.
	if own.PlanDistinct == 0 || own.PlanDistinct >= own.PlanMisses || own.WireDistinct == 0 || own.WireDistinct > own.WireMisses {
		t.Fatalf("session stage stats: %+v, want fewer plans held than plan keys built", own)
	}
	if all := eng.Stats().Stage; all.PlanDistinct != own.PlanDistinct || all.WireDistinct != own.WireDistinct {
		t.Fatalf("engine-wide %+v != the only session's %+v", all, own)
	}
}

// smallMACSio is a MACSio source small enough to record in milliseconds,
// with edit applied to one of its lines.
func smallMACSio(t *testing.T, old, new string) string {
	t.Helper()
	w := workload.NewMACSio(16)
	w.Dumps = 1
	w.PartBytes = 64 << 10
	src := w.CSource()
	if old == "" {
		return src
	}
	if !strings.Contains(src, old) {
		t.Fatalf("fixture drifted: MACSio source no longer contains %q", old)
	}
	return strings.Replace(src, old, new, 1)
}

// withStrayBarrier makes a MACSio source unrecordable: rank 0 alone enters
// a barrier while the others are in the file close, and neither collective
// ever has every live rank.
func withStrayBarrier(t *testing.T, src string) string {
	t.Helper()
	const closeFile = "    H5Fclose(file);\n"
	if !strings.Contains(src, closeFile) {
		t.Fatalf("fixture drifted: MACSio source no longer contains %q", closeFile)
	}
	return strings.Replace(src, closeFile, "    if (rank == 0) {\n        MPI_Barrier(MPI_COMM_WORLD);\n    }\n"+closeFile, 1)
}

// sourceSpec is a small one-shot job over C source; online turns it into
// an online session over the same kernel.
func sourceSpec(src string, online bool) JobSpec {
	spec := JobSpec{
		Source: src,
		Nodes:  2, ProcsPerNode: 8,
		PopSize: 4, MaxIterations: 3, Reps: 1,
		Seed: 21, Parallelism: 2,
	}
	if online {
		spec.Online = &OnlineSpec{Windows: 4, Neighbors: 3, Rounds: 1, InitRounds: 1}
	}
	return spec
}

// A kernel has one identity whichever kind of job saw it first: one-shot
// and online sessions resolve it the same way, so the hash — and with it
// every stage-cache key — does not depend on arrival order.
func TestEngineKernelIdentityIsOrderIndependent(t *testing.T) {
	src := smallMACSio(t, "", "")
	var hashes []string
	for _, onlineFirst := range []bool{true, false} {
		eng := NewEngine(EngineOptions{})
		first := tuneOn(t, eng, sourceSpec(src, onlineFirst))
		second := tuneOn(t, eng, sourceSpec(src, !onlineFirst))
		if first.EngineInfo.KernelStoreHit || !second.EngineInfo.KernelStoreHit {
			t.Fatalf("online first=%v: store hits %v then %v, want a recording then a hit",
				onlineFirst, first.EngineInfo.KernelStoreHit, second.EngineInfo.KernelStoreHit)
		}
		if first.EngineInfo.KernelHash != second.EngineInfo.KernelHash {
			t.Fatalf("online first=%v: kernel hashes %q then %q", onlineFirst,
				first.EngineInfo.KernelHash, second.EngineInfo.KernelHash)
		}
		if st := eng.Stats(); st.Kernels.Kernels != 1 || st.Stage.PlanMisses == 0 {
			t.Fatalf("online first=%v: engine holds %d kernels, stage stats %+v", onlineFirst, st.Kernels.Kernels, st.Stage)
		}
		for _, res := range []*Result{first, second} {
			if own := res.EngineInfo.StageStats; own.WireHits+own.WireMisses == 0 || own.ServiceHits+own.ServiceMisses == 0 {
				t.Fatalf("online first=%v: a session reports no stage traffic of its own: %+v", onlineFirst, own)
			}
		}
		hashes = append(hashes, first.EngineInfo.KernelHash)
	}
	if hashes[0] != hashes[1] || !strings.HasPrefix(hashes[0], "trace:") {
		t.Fatalf("kernel hashes %q, want one trace: key in both orders", hashes)
	}
}

// A program that does not record fails both kinds of job, with a typed
// error, and is never counted as done.
func TestEngineUntraceableFailsJob(t *testing.T) {
	src := withStrayBarrier(t, smallMACSio(t, "", ""))
	eng := NewEngine(EngineOptions{})
	for _, online := range []bool{false, true} {
		run, err := eng.Tune(context.Background(), sourceSpec(src, online))
		if err != nil {
			t.Fatalf("online=%v: the program parses, submission must succeed: %v", online, err)
		}
		res, err := run.Wait()
		if res != nil || !errors.Is(err, ErrUntraceable) {
			t.Fatalf("online=%v: res=%v err=%v, want nil + ErrUntraceable", online, res, err)
		}
		if !strings.Contains(err.Error(), "collective mismatch") {
			t.Fatalf("online=%v: err = %v, want the recording failure as the cause", online, err)
		}
	}
	if st := eng.Stats(); st.SessionsFailed != 2 || st.SessionsDone != 0 || st.Kernels.Kernels != 0 {
		t.Fatalf("engine stats %+v, want 2 failed, none done, nothing stored", st)
	}
}

// The paper's §III-B rule on the one path: Application I/O Discovery does
// not see a write through a pointer alias, so this program's kernel loses
// the statement that sizes its dataset and cannot record. The job records
// the full submitted source instead, says so, and tunes exactly as a job
// submitting the full source without discovery does.
func TestEngineKernelFallsBackToFullSource(t *testing.T) {
	src := smallMACSio(t, "        hsize_t dims[2] = {PARTS, 0};\n",
		"        int np = 0;\n        int *pp = &np;\n        *pp = PARTS;\n        hsize_t dims[2] = {PARTS, 0};\n        dims[0] = np;\n")

	spec := sourceSpec(src, false)
	spec.Discover = true
	eng := NewEngine(EngineOptions{})
	res := tuneOn(t, eng, spec)
	info := res.EngineInfo
	if !info.FellBack || !strings.Contains(info.FallbackErr, "trace recording") {
		t.Fatalf("EngineInfo %+v: want FellBack with the kernel's recording error (if discovery now follows the alias, pick another blind spot)", info)
	}

	direct := soloResult(t, sourceSpec(src, false))
	if direct.EngineInfo.FellBack {
		t.Fatal("the full source fell back on its own")
	}
	if !reflect.DeepEqual(res.Curve, direct.Curve) || !reflect.DeepEqual(res.Best.Genome(), direct.Best.Genome()) {
		t.Fatalf("fallback curve differs from tuning the full source directly:\n got  %v\n want %v", res.Curve, direct.Curve)
	}
	if info.KernelHash != direct.EngineInfo.KernelHash {
		t.Fatalf("fallback kernel %q, the full source is %q", info.KernelHash, direct.EngineInfo.KernelHash)
	}
	// The full source is what the store now holds: the next such job skips
	// both recordings' worth of interpretation only for the full source.
	again := tuneOn(t, eng, spec)
	if !again.EngineInfo.FellBack || !again.EngineInfo.KernelStoreHit {
		t.Fatalf("repeat job: %+v, want the fallback served from the kernel store", again.EngineInfo)
	}

	// When the full source does not record either, the job fails.
	spec.Source = withStrayBarrier(t, src)
	run, err := eng.Tune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := run.Wait(); res != nil || !errors.Is(err, ErrUntraceable) {
		t.Fatalf("untraceable kernel and source: res=%v err=%v, want ErrUntraceable", res, err)
	}
}

// An online spec the drift controller would refuse is refused at submit,
// like every other bad spec — not accepted, recorded and then failed.
func TestEngineOnlineSpecRefusedAtSubmit(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	for name, tc := range map[string]struct {
		reps   int
		online OnlineSpec
		want   string
	}{
		"prune over averaged reps": {3, OnlineSpec{Windows: 4, Prune: true}, "Prune requires Reps == 1"},
		"negative threshold":       {1, OnlineSpec{Windows: 4, Threshold: -0.1}, "must be >= 0"},
		"negative window gap":      {1, OnlineSpec{Windows: 4, WindowGap: -1}, "must be >= 0"},
	} {
		spec := sourceSpec(smallMACSio(t, "", ""), false)
		spec.Reps, spec.Online = tc.reps, &tc.online
		run, err := eng.Tune(context.Background(), spec)
		if err == nil {
			_, werr := run.Wait()
			t.Fatalf("%s: Tune accepted the spec; the session then ended with: %v", name, werr)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", name, err, tc.want)
		}
	}
	if st := eng.Stats(); st.SessionsStarted != 0 || st.Kernels.Kernels != 0 || st.Kernels.Misses != 0 {
		t.Fatalf("refused specs started sessions or reached the kernel store: %+v", st)
	}
	// Pruning a single-rep objective is what the rule allows.
	spec := sourceSpec(smallMACSio(t, "", ""), true)
	spec.Online.Prune = true
	tuneOn(t, eng, spec)
}

// oddEvenByHandle is internal/tuner's divergentOddEven (tracekeys_test.go):
// odd ranks write through another dataset handle than even ranks, which the
// static signature walker does not follow — its exact signature predicts
// writes the program never makes. oddEvenKey4 is its pinned trace key on 4
// processes; a copy that drifts from the original moves it.
const (
	oddEvenByHandle = `
int main() {
    int rank;
    int nprocs;
    MPI_Init(0, 0);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &nprocs);
    hid_t file = H5Fcreate("/scratch/oddeven.h5", H5F_ACC_TRUNC, H5P_DEFAULT, H5P_DEFAULT);
    hsize_t dims[1] = {0};
    dims[0] = nprocs * 256;
    hid_t sp = H5Screate_simple(1, dims, NULL);
    hid_t ds[5] = {0, 0, 0, 0, 0};
    for (int i = 0; i < 5; i++) {
        ds[i] = H5Dcreate(file, dsname(i), H5T_NATIVE_DOUBLE, sp, H5P_DEFAULT, H5P_DEFAULT, H5P_DEFAULT);
    }
    hsize_t start[1] = {0};
    hsize_t count[1] = {256};
    start[0] = rank * 256;
    H5Sselect_hyperslab(sp, H5S_SELECT_SET, start, NULL, count, NULL);
    hid_t mine = ds[0];
    if (rank % 2 == 1) {
        mine = ds[3];
    }
    for (int step = 0; step < 2; step++) {
        H5Dwrite(mine, H5T_NATIVE_DOUBLE, H5S_ALL, sp, H5P_DEFAULT, 0);
    }
    for (int i = 0; i < 5; i++) {
        H5Dclose(ds[i]);
    }
    H5Sclose(sp);
    H5Fclose(file);
    MPI_Finalize();
    return 0;
}
`
	oddEvenKey4 = "trace:068200304ad00c06"
)

// The recorded trace is a kernel's only identity and only oracle: a valid
// program the static analyser gets wrong tunes like any other, one-shot and
// online, with discovery and without, under its trace's key.
func TestEngineTunesWhatTheSignatureContradicts(t *testing.T) {
	for _, online := range []bool{false, true} {
		for _, discover := range []bool{false, true} {
			spec := sourceSpec(oddEvenByHandle, online)
			spec.Nodes, spec.ProcsPerNode, spec.Discover = 1, 4, discover
			res := soloResult(t, spec)
			if info := res.EngineInfo; info.KernelHash != oddEvenKey4 || info.FellBack {
				t.Errorf("online=%v discover=%v: kernel %q (fell back: %v), want %q recorded as submitted",
					online, discover, info.KernelHash, info.FellBack, oddEvenKey4)
			}
			if res.BestPerf <= 0 {
				t.Errorf("online=%v discover=%v: no perf measured", online, discover)
			}
		}
	}
}

// A store saved by a daemon that keyed kernels by signature converges on
// load: the entry's hash is recomputed from the verified trace, so the job
// that hits it reports, and files its artifacts under, the trace's key.
func TestEngineAdoptsOlderKernelStore(t *testing.T) {
	warm := NewEngine(EngineOptions{})
	want := tuneOn(t, warm, sharedSpec(3)).EngineInfo.KernelHash
	key := tuner.KernelSource{Workload: workload.NewMACSio(16), Nprocs: 16}.Key()
	ent, ok := warm.store.Get(key)
	if !ok {
		t.Fatal("the warm engine stored no macsio kernel")
	}
	old := replay.NewKernelStore()
	old.Put(key, replay.KernelEntry{Trace: ent.Trace, KernelHash: "sig:00c0ffee/0123456789abcdef"})
	path := filepath.Join(t.TempDir(), "kernels.json")
	if _, err := old.Save(path); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || !strings.Contains(string(b), `"sig:00c0ffee/`) {
		t.Fatalf("the store file does not carry the old key shape (read: %v)", err)
	}

	store := replay.NewKernelStore()
	if n, err := store.Load(path); err != nil || n != 1 {
		t.Fatalf("Load = %d, %v", n, err)
	}
	res := tuneOn(t, NewEngine(EngineOptions{KernelStore: store}), sharedSpec(3))
	if info := res.EngineInfo; !info.KernelStoreHit || info.KernelHash != want || !strings.HasPrefix(want, "trace:") {
		t.Fatalf("job over the loaded store: hit %v, kernel %q, want a hit on %q", info.KernelStoreHit, info.KernelHash, want)
	}
}

// What a stranger can submit ends in a result or a typed error and leaves
// the engine as it found it: exit() inside a callee (a valid two-event
// kernel), a collective only one rank reaches (does not record). What is
// refused at submit (TestEngineValidation) never starts anything.
func TestEngineHostileSourcesLeaveNothingBehind(t *testing.T) {
	const exitInCallee = `
void bail() { exit(0); }
int main() {
    MPI_Init(0, 0);
    hid_t file = H5Fcreate("/scratch/x.h5", H5F_ACC_TRUNC, H5P_DEFAULT, H5P_DEFAULT);
    bail();
    H5Fclose(file);
    MPI_Finalize();
    return 0;
}
`
	eng := NewEngine(EngineOptions{Workers: 2})
	before := runtime.NumGoroutine()
	for _, discover := range []bool{false, true} {
		spec := sourceSpec(exitInCallee, false)
		spec.Discover = discover
		if res := tuneOn(t, eng, spec); res.EngineInfo.FellBack {
			t.Errorf("discover=%v: exit() in a callee fell back: %s", discover, res.EngineInfo.FallbackErr)
		}
	}
	run, err := eng.Tune(context.Background(), sourceSpec(withStrayBarrier(t, smallMACSio(t, "", "")), false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Wait(); !errors.Is(err, ErrUntraceable) {
		t.Errorf("stray barrier: err = %v, want ErrUntraceable", err)
	}

	st := eng.Stats()
	if st.InFlight != 0 || st.SessionsActive != 0 || st.SessionsStarted != 3 || st.SessionsDone != 2 || st.SessionsFailed != 1 {
		t.Errorf("engine stats %+v, want 3 started, 2 done, 1 failed, nothing held", st)
	}
	for i := 0; runtime.NumGoroutine() > before && i < 1000; i++ {
		time.Sleep(time.Millisecond) // session goroutines finish their Run before they return
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after", before, after)
	}
}

// A cold job builds stage 1 by footprint: which plan-stage parameters a
// kernel's planning consults is learned from its first build, and genomes
// that differ only outside that set are one key. A VPIC-shaped source
// (contiguous datasets: the chunk cache is never consulted) tuned over
// chunk_cache alone, and a FLASH-shaped one (chunked: no sieve buffer) over
// sieve_buf_size alone, each cost one stage-1 build however many values the
// search visits — and a second job, served the plan the first one's genome
// built, returns the curve a fresh engine does.
func TestEngineColdJobBuildsByFootprint(t *testing.T) {
	vpic := &workload.VPIC{Procs: 16, ParticlesPerRank: 16 * 2048, Vars: 4, Steps: 1, Segments: 16, ComputeFlops: 1e9, Path: "/scratch/v.h5"}
	flash := &workload.FLASH{Procs: 16, BlocksPerRank: 8, NXB: 8, NYB: 8, NZB: 8, Unknowns: 4, Steps: 1, ComputeFlops: 1e9, Path: "/scratch/f.h5"}
	for _, tc := range []struct{ name, source, free string }{
		{"vpic", vpic.CSource(), "chunk_cache"},
		{"flash", flash.CSource(), "sieve_buf_size"},
	} {
		spec := JobSpec{
			Source: tc.source,
			Nodes:  2, ProcsPerNode: 8,
			PopSize: 16, MaxIterations: 8, Reps: 1,
			Seed:        5,
			Parallelism: 2,
			Fix:         map[string]int64{},
		}
		for _, p := range ParameterSpace() {
			if p.Name != tc.free {
				spec.Fix[p.Name] = p.Values[p.Default]
			}
		}
		eng := NewEngine(EngineOptions{})
		first := tuneOn(t, eng, spec)
		if st := first.EngineInfo.StageStats; st.PlanMisses != 1 || st.WireMisses != 1 {
			t.Errorf("%s over %s: first job's stage stats %+v, want one stack plan and one wire plan built", tc.name, tc.free, st)
		}
		spec.Seed = 6
		second := tuneOn(t, eng, spec)
		if st := second.EngineInfo.StageStats; st.PlanMisses != 0 || st.WireMisses != 0 {
			t.Errorf("%s over %s: second job's stage stats %+v, want every lookup a hit", tc.name, tc.free, st)
		}
		if st := eng.Stats().Stage; st.PlanMisses != 1 || st.PlanDistinct != 1 {
			t.Errorf("%s over %s: engine stage stats %+v, want one stage-1 build", tc.name, tc.free, st)
		}
		if solo := soloResult(t, spec); !reflect.DeepEqual(second.Curve, solo.Curve) {
			t.Errorf("%s over %s: curve served from the first job's plan differs from a fresh engine's", tc.name, tc.free)
		}
	}
}
