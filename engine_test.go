package tunio

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

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
	if h := res.EngineInfo.KernelHash; !strings.HasPrefix(h, "sig:") && !strings.HasPrefix(h, "trace:") {
		t.Fatalf("kernel hash = %q, want sig:/trace: prefix", h)
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

// Two programs can share an exact I/O signature — it covers op counts and
// bytes per transfer, not dataset shape — and still record different
// traces: FLASH with 32 blocks of 8×8×17 cells and with 34 blocks of
// 8×8×16. The kernel hash must keep them apart, or the second is served
// the first one's trace and curve.
func TestEngineCollidingSignaturesKeptApart(t *testing.T) {
	source := func(blocks, nzb int64) string {
		return (&workload.FLASH{Procs: 16, BlocksPerRank: blocks, NXB: 8, NYB: 8, NZB: nzb,
			Unknowns: 6, Steps: 1, ComputeFlops: 1e9, Path: "/scratch/flash.h5"}).CSource()
	}
	spec := JobSpec{
		Nodes: 2, ProcsPerNode: 8,
		PopSize: 8, MaxIterations: 5, Reps: 1,
		Seed:        11,
		Parallelism: 2,
	}
	first, second := spec, spec
	first.Source, second.Source = source(32, 17), source(34, 16)

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
	// The pair must still collide on the signature, or this proves nothing.
	sigOf := func(hash string) string {
		sig, _, _ := strings.Cut(hash, "/")
		if !strings.HasPrefix(sig, "sig:") {
			t.Fatalf("kernel hash %q, want a sig: key", hash)
		}
		return sig
	}
	if sa, sb := sigOf(a.EngineInfo.KernelHash), sigOf(b.EngineInfo.KernelHash); sa != sb {
		t.Fatalf("signatures %q and %q no longer collide", sa, sb)
	}
	if a.EngineInfo.KernelHash == b.EngineInfo.KernelHash {
		t.Fatalf("both programs keyed %q", a.EngineInfo.KernelHash)
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

// mismatchedSource is a program whose exact static signature disagrees
// with what it records: the signature walker ends the program at the
// exit() inside bail(), the interpreter only returns from bail() and goes
// on to close the file and finalize. Whichever of the two is wrong, the
// trace cannot be trusted.
func mismatchedSource(t *testing.T) string {
	return withBail(smallMACSio(t, "", ""))
}

func withBail(src string) string {
	src = strings.Replace(src, "    H5Fclose(file);\n", "    bail();\n    H5Fclose(file);\n", 1)
	return strings.Replace(src, "int main(", "void bail() { exit(0); }\nint main(", 1)
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

// A kernel has one identity whichever kind of job saw it first: online
// sessions used to record without the signature cross-validation and file
// the kernel under its trace: hash alone, so the hash — and with it every
// stage-cache key — depended on arrival order.
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
	sig, trace, ok := strings.Cut(hashes[0], "/")
	if hashes[0] != hashes[1] || !ok || !strings.HasPrefix(sig, "sig:") || trace == "" {
		t.Fatalf("kernel hashes %q, want one sig:<signature>/<trace> key in both orders", hashes)
	}
}

// A program whose exact signature disagrees with its trace is refused by
// both kinds of job, with a typed error, and is never counted as done.
func TestEngineUntraceableFailsJob(t *testing.T) {
	src := mismatchedSource(t)
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
		if !strings.Contains(err.Error(), "signature/trace mismatch") {
			t.Fatalf("online=%v: err = %v, want the cross-validation failure as the cause", online, err)
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

	// When the full source cannot be traced either, the job fails.
	spec.Source = withBail(src)
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
