package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"tunio"
	"tunio/internal/replay"
	"tunio/internal/server"
	"tunio/internal/train"
)

// warmupJob is the job id of spans recorded while the traced pipeline's
// caches are warmed; the ledger leaves them out.
const warmupJob = -1

// sampleJobs are the jobs of the traced pass: the first n of the sequence.
func sampleJobs(b *bed, n int) ([]jobInput, error) {
	out := make([]jobInput, n)
	for i := range out {
		var err error
		if out[i], err = b.job(i); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// trainTimed trains the agent through the training pipeline with its
// artifacts kept, then resumes from them, timing both.
func trainTimed(cfg runConfig) (agent []byte, runS, resumeMS float64, err error) {
	dir := filepath.Join(cfg.outDir, "train-"+cfg.def.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, 0, err
	}
	tc := trainConfig(cfg.sc)
	tc.ArtifactsDir = dir
	start := time.Now()
	res, err := train.Run(context.Background(), tc)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("training: %w", err)
	}
	runS = time.Since(start).Seconds()
	tc.Resume = true
	start = time.Now()
	if _, err := train.Run(context.Background(), tc); err != nil {
		return nil, 0, 0, fmt.Errorf("resuming training: %w", err)
	}
	resumeMS = float64(time.Since(start)) / float64(time.Millisecond)
	agent, err = json.Marshal(res.Agent)
	return agent, runS, resumeMS, err
}

// gcCPU reads the runtime's own account of CPU seconds: spent in the
// collector, and in total.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// tracedPass produces the per-layer metrics. A fixed sample of jobs runs
// one at a time, each four ways: through the daemon over HTTP, through
// the library as submitted, through the library with one worker, and
// through the harness-assembled pipeline with a span around every layer
// call. The first three must agree bit for bit. A closed-loop phase then
// reads the counters that only mean something under load.
func tracedPass(cfg runConfig) (*report, error) {
	rep := cfg.newReport("per_layer")
	for _, d := range perLayer {
		rep.set(d.Name, 0)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	began := time.Now()
	b, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	defer b.d.stop()
	sample, err := sampleJobs(b, b.sz.traced)
	if err != nil {
		return nil, err
	}

	var agent []byte
	if needsAgent(sample) {
		var runS, resumeMS float64
		if agent, runS, resumeMS, err = trainTimed(cfg); err != nil {
			return nil, err
		}
		rep.set("train.run_s", runS)
		rep.set("train.resume_ms", resumeMS)
	}
	// A warm workload's library runs share the daemon's engine, which has
	// seen every spec; a cold one's get engines that have seen nothing.
	var libEngine, serialEngine *tunio.Engine
	if cfg.def.warm {
		libEngine, serialEngine = b.d.engine, b.d.engine
	}
	lib := &library{engine: orFresh(libEngine), agent: agent}
	serial := &library{engine: orFresh(serialEngine), agent: agent}

	rec := newRecorder()
	pipe := newPipeline(rec, agent)
	if cfg.def.warm {
		rec.job = warmupJob
		for _, in := range b.gen.specs {
			if _, _, err := pipe.run(in.Body); err != nil {
				return nil, fmt.Errorf("warming the traced pipeline: %w", err)
			}
		}
		pipe.n = pipelineCounts{}
	}

	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
	}
	cl := newClient(b.d.base)
	defer cl.close()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var submitMS, firstMS, statusMS, replayMS, libMS, httpOver, traceOver []float64
	matched, traced := 0, 0
	for j, in := range sample {
		one := in
		one.Req.Parallelism = 1
		rec.job = j
		var digs [4]string
		var took [4]time.Duration
		ways := [4]func() error{
			func() error { // the daemon, over HTTP
				t, st, err := cl.runJob(in.Body)
				if err == nil {
					err = checkServed(in, st)
				}
				if err != nil {
					return err
				}
				digs[0], took[0] = servedOutcome(st.Result).digest(), t.Done
				submitMS, firstMS = append(submitMS, ms(t.Submitted)), append(firstMS, ms(t.FirstEvent))
				var again server.JobStatus
				d, err := cl.get("/v1/jobs/"+st.ID, &again)
				if err != nil {
					return err
				}
				statusMS = append(statusMS, ms(d))
				start := time.Now()
				_, _, err = cl.follow(st.ID, start)
				replayMS = append(replayMS, ms(time.Since(start)))
				return err
			},
			func() (err error) { // the library, as submitted
				var o outcome
				o, took[1], err = lib.run(in)
				digs[1] = o.digest()
				return err
			},
			func() (err error) { // the library, one worker
				var o outcome
				o, took[2], err = serial.run(one)
				digs[2] = o.digest()
				return err
			},
			func() (err error) { // the traced pipeline
				var o outcome
				o, took[3], err = pipe.run(in.Body)
				digs[3] = o.digest()
				return err
			},
		}
		// Of each compared pair, which way goes first alternates, so that
		// neither always runs on the other's warmed allocator and caches.
		order := [4]int{0, 1, 2, 3}
		if j%2 == 1 {
			order = [4]int{1, 0, 3, 2}
		}
		failed := false
		for _, w := range order {
			if err := ways[w](); err != nil {
				fail("traced sample job %d (spec %d), way %d: %v", j, in.Spec, w, err)
				failed = true
			}
		}
		if failed {
			continue
		}
		if digs[1] != digs[0] || digs[2] != digs[0] {
			fail("spec %d: served %s, library %s, one-worker library %s", in.Spec, digs[0], digs[1], digs[2])
		}
		traced++
		if digs[3] == digs[0] {
			matched++
		}
		libMS = append(libMS, ms(took[1]))
		httpOver = append(httpOver, 1-ratio(ms(took[1]), ms(took[0])))
		traceOver = append(traceOver, ratio(ms(took[3]), ms(took[2]))-1)
	}

	// The loaded phase: what is left of the seconds, a quarter at least.
	left := cfg.seconds - time.Since(began).Seconds()
	if left < cfg.seconds/4 {
		left = cfg.seconds / 4
	}
	var stats0, stats1 server.StatsResponse
	if _, err := cl.get("/v1/stats", &stats0); err != nil {
		return nil, err
	}
	gc0, cpu0 := gcCPU()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.first = len(sample)
	results, elapsed := b.load(left, b.sz.quality)
	runtime.ReadMemStats(&ms1)
	gc1, cpu1 := gcCPU()
	var loadEvals float64
	var loadOK []served
	for _, s := range results {
		if s.Err != "" {
			fail("job %d (spec %d): %s", s.Index, s.Spec, s.Err)
			continue
		}
		loadOK = append(loadOK, s)
		loadEvals += float64(s.Evaluations)
	}
	if b.sz.distinct == 0 {
		rep.Failures = append(rep.Failures, sharedKernels(loadOK)...)
	}
	var list []jobID
	listD, err := cl.get("/v1/jobs", &list)
	if err != nil {
		return nil, err
	}
	statsD, err := cl.get("/v1/stats", &stats1)
	if err != nil {
		return nil, err
	}

	storePath := filepath.Join(cfg.outDir, "kernels-"+cfg.def.name+".json")
	start := time.Now()
	if _, err := pipe.store.Save(storePath); err != nil {
		return nil, err
	}
	rep.set("replay.store_save_ms", ms(time.Since(start)))
	if fi, err := os.Stat(storePath); err == nil {
		rep.set("replay.store_mb", float64(fi.Size())/mb)
	}
	start = time.Now()
	if _, err := replay.NewKernelStore().Load(storePath); err != nil {
		return nil, err
	}
	rep.set("replay.store_load_ms", ms(time.Since(start)))
	if err := rec.write(cfg); err != nil {
		return nil, err
	}

	rep.set("server.submit_ms", median(submitMS))
	rep.set("server.first_point_ms", median(firstMS))
	rep.set("server.status_ms", median(statusMS))
	rep.set("server.sse_replay_ms", median(replayMS))
	rep.set("server.list_ms", ms(listD))
	rep.set("server.stats_ms", ms(statsD))
	rep.set("server.jobs_retained", float64(len(list)))
	rep.set("engine.library_job_ms", median(libMS))
	rep.set("engine.http_overhead_share", median(httpOver))
	k0, k1 := stats0.Kernels, stats1.Kernels
	rep.set("engine.kernel_store_hit_share", ratio(float64(k1.Hits-k0.Hits), float64(k1.Hits-k0.Hits+k1.Misses-k0.Misses)))
	s0, s1 := stats0.Stage, stats1.Stage
	rep.set("replay.plan_hit_share", ratio(float64(s1.PlanHits-s0.PlanHits), float64(s1.PlanHits-s0.PlanHits+s1.PlanMisses-s0.PlanMisses)))
	rep.set("replay.wire_hit_share", ratio(float64(s1.WireHits-s0.WireHits), float64(s1.WireHits-s0.WireHits+s1.WireMisses-s0.WireMisses)))
	rep.set("tuner.evals_per_s", ratio(loadEvals, elapsed.Seconds()))
	rep.set("runtime.gc_cpu_share", ratio(gc1-gc0, cpu1-cpu0))
	rep.set("runtime.mallocs_per_job", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(len(loadOK))))
	rep.set("trace.overhead_share", median(traceOver))
	rep.set("trace.curve_match_share", ratio(float64(matched), float64(traced)))
	ledgerMetrics(rep, rec, pipe.n)

	attempted := len(sample) + len(results)
	if err := rep.finish(perLayer, attempted, min(len(rep.Failures), attempted), len(rep.Failures) == 0); err != nil {
		return nil, err
	}
	return rep, nil
}

func orFresh(e *tunio.Engine) *tunio.Engine {
	if e != nil {
		return e
	}
	return tunio.NewEngine(tunio.EngineOptions{Workers: engineWorkers})
}

// preStage3 are the spans of everything a job does before its first
// replay: the layers cold_source is built to load and warm_repeat to skip.
var preStage3 = []string{
	"server.decode", "server.agent_copy", "engine.resolve", "discovery.discover", "csrc.parse",
	"engine.record", "workload.build_stack", "cinterp.record", "workload.record",
	"analysis.signature", "replay.crossvalidate", "replay.stage1", "replay.stage2", "replay.lookup",
}

// ledgerMetrics turns the spans and the counts taken beside them into the
// per-layer metrics.
func ledgerMetrics(rep *report, rec *recorder, n pipelineCounts) {
	l := rec.ledger()
	const us, msec = 1e3, 1e6
	rep.set("server.decode_us", l.perCall("server.decode", us))
	rep.set("server.encode_us", l.perCall("server.encode", us))
	rep.set("server.agent_copy_ms", l.perCall("server.agent_copy", msec))
	rep.set("engine.resolve_ms", l.perJob("engine.resolve", msec)+l.perJob("discovery.discover", msec)+l.perJob("csrc.parse", msec))
	rep.set("discovery.discover_ms", l.perCall("discovery.discover", msec))
	rep.set("discovery.kept_line_share", ratio(float64(n.keptLines), float64(n.totalLines)))
	rep.set("csrc.parse_ms", l.perCall("csrc.parse", msec))
	rep.set("analysis.signature_ms", l.perCall("analysis.signature", msec))
	rep.set("analysis.exact_share", ratio(float64(n.exact), float64(n.signatures)))
	rep.set("cinterp.record_ms", l.perCall("cinterp.record", msec))
	rep.set("cinterp.events_per_record", ratio(float64(n.recordEvents), float64(n.records)))
	rep.set("replay.crossvalidate_us", l.perCall("replay.crossvalidate", us))
	rep.set("workload.record_ms", rec.meanDuration("workload.record")/msec)

	rep.set("replay.stage1_ms_per_miss", l.perCall("replay.stage1", msec))
	rep.set("replay.stage1_misses_per_job", l.callsPerJob("replay.stage1"))
	rep.set("replay.stage2_ms_per_miss", l.perCall("replay.stage2", msec))
	rep.set("replay.stage2_misses_per_job", l.callsPerJob("replay.stage2"))
	rep.set("replay.lookup_us_per_hit", l.perCall("replay.lookup", us))

	rep.set("replay.stage3_ms_per_exec", l.perCall("replay.stage3", msec))
	rep.set("replay.stage3_execs_per_job", l.callsPerJob("replay.stage3"))
	rep.set("replay.stage3_ns_per_sim_op", ratio(float64(l.Self["replay.stage3"]), float64(n.simOps())))
	rep.set("workload.stack_get_us", l.perCall("workload.stack_get", us))
	execs := float64(n.execs)
	rep.set("hdf5.sim_ops_per_exec", ratio(float64(n.hdf5Ops), execs))
	rep.set("mpiio.sim_ops_per_exec", ratio(float64(n.mpiioOps), execs))
	rep.set("lustre.sim_ops_per_exec", ratio(float64(n.lustreOps), execs))
	rep.set("lustre.sim_mb_per_exec", ratio(float64(n.lustreBytes)/mb, execs))
	rep.set("cluster.sim_s_per_exec", ratio(n.simSeconds, execs))

	oneShot := float64(n.oneShot)
	rep.set("tuner.self_ms_per_job", l.perJob("tuner.run_batch", msec)+l.perJob("tuner.memo", msec)+l.perJob("tuner.evaluate", msec))
	rep.set("tuner.evals_per_job", ratio(float64(n.evals), oneShot))
	rep.set("tuner.iterations_per_job", ratio(float64(n.iterations), oneShot))
	rep.set("tuner.memo_hit_share", ratio(float64(n.memoHits), float64(n.memoHits+n.memoMisses)))
	rep.set("tuner.stopped_early_share", ratio(float64(n.stoppedEarly), oneShot))
	rep.set("rl.picker_us_per_iter", l.perCall("rl.picker", us))
	rep.set("rl.stopper_us_per_iter", l.perCall("rl.stopper", us))
	online := float64(n.online)
	rep.set("tuner.drift_ms_per_job", l.perJob("tuner.drift", msec))
	rep.set("tuner.drift_evals_per_job", ratio(float64(n.driftEvals), online))
	rep.set("tuner.drift_pruned_share", ratio(float64(n.driftPruned), float64(n.driftEvals)))
	rep.set("tuner.drift_retunes_per_job", ratio(float64(n.driftRetunes), online))

	rep.set("trace.unattributed_share", l.share(rootSpan))
	// Shares of a job's time are taken of what the job would have cost
	// without the harness's second build of every missed plan.
	rep.set("trace.pre_stage3_share", ratio(l.share(preStage3...), 1-l.share("trace.fill")))
}
