package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"time"

	"tunio"
	"tunio/internal/analysis"
	"tunio/internal/cinterp"
	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/discovery"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/server"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

// in runs f inside a span. Closing through a closure keeps the span stack
// ordered on every return path.
func (r *recorder) in(name string, f func()) {
	id := r.begin(name)
	f()
	r.end(id)
}

// pipeline is a tuning job assembled by the harness from the layers'
// public functions, in the order tunio.Engine calls them, with a span
// around each call. It shares across jobs what the engine shares across
// sessions — a kernel store and a stage cache — and scores genomes
// serially, so spans nest and the ledger adds up. Its curves equal the
// served ones as long as it mirrors the engine's arithmetic;
// trace.curve_match_share says whether it still does.
type pipeline struct {
	rec    *recorder
	store  *replay.KernelStore
	stages *replay.StageCache
	agent  []byte // trained agent as JSON, nil when no job needs one
	// kernels remembers, per kernel hash, which stage artifacts the shared
	// cache already holds, so a lookup can be classified before it is
	// made: a hit goes through CacheView.WireFor, a miss through the
	// stage builders themselves.
	kernels map[string]*kernelArtifacts
	n       pipelineCounts
}

type kernelArtifacts struct {
	plans map[string]*replay.StackPlan
	wires map[string]bool
}

// pipelineCounts are the counts taken at the same boundaries as the
// spans. Those fed by the simulator repeat exactly for a seed.
type pipelineCounts struct {
	keptLines, totalLines int
	signatures, exact     int
	records, recordEvents int

	evals, memoHits, memoMisses int
	iterations, stoppedEarly    int
	oneShot, online             int

	execs                        int
	hdf5Ops, mpiioOps, lustreOps int64
	lustreBytes                  int64
	simSeconds                   float64

	driftEvals, driftPruned, driftRetunes int
}

func newPipeline(rec *recorder, agent []byte) *pipeline {
	return &pipeline{
		rec:     rec,
		store:   replay.NewKernelStore(),
		stages:  replay.NewSharedStageCache(),
		agent:   agent,
		kernels: map[string]*kernelArtifacts{},
	}
}

// wireFootprint is the parameter set a wire plan depends on: the plan and
// aggregate stage footprints, as the stage cache keys it.
var wireFootprint = append(append([]string{}, params.PlanStage...), params.AggregateStage...)

// kernel is a resolved job kernel: a named workload model or a parsed C
// program, with the key the kernel store files it under.
type kernel struct {
	w        workload.Workload
	prog     *csrc.File
	storeKey string
}

// run executes one job and returns what it decided and how long the root
// span lasted. All spans it opens carry the recorder's current job id.
func (p *pipeline) run(body []byte) (outcome, time.Duration, error) {
	root := p.rec.begin(rootSpan)
	out, err := p.job(body)
	p.rec.end(root)
	s := p.rec.spans[root]
	return out, time.Duration(s.End - s.Start), err
}

func (p *pipeline) job(body []byte) (outcome, error) {
	rec := p.rec
	var req server.JobRequest
	var err error
	rec.in("server.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return outcome{}, err
	}
	c := cluster.CoriHaswell(req.Nodes, req.ProcsPerNode)
	if req.Drift != nil {
		c.Drift = req.Drift
		if err := c.Validate(); err != nil {
			return outcome{}, err
		}
	}
	space := params.Space()

	var kern kernel
	rec.in("engine.resolve", func() { kern, err = p.resolve(req, c) })
	if err != nil {
		return outcome{}, err
	}
	ent, ok := p.store.Get(kern.storeKey)
	if !ok {
		rec.in("engine.record", func() { ent, err = p.record(kern, c, space, req.Seed) })
		if err != nil {
			return outcome{}, err
		}
		p.store.Put(kern.storeKey, ent)
	}
	p.stages.Register(ent.KernelHash, ent.Trace)
	art := p.kernels[ent.KernelHash]
	if art == nil {
		art = &kernelArtifacts{plans: map[string]*replay.StackPlan{}, wires: map[string]bool{}}
		p.kernels[ent.KernelHash] = art
	}
	view := p.stages.View(ent.KernelHash)

	var status server.JobStatus
	if req.Online != nil {
		status, err = p.online(req, c, space, ent.Trace, view)
	} else {
		status, err = p.oneShot(req, c, space, kern, ent, art, view)
	}
	if err != nil {
		return outcome{}, err
	}
	rec.in("server.encode", func() {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(status)
	})
	return servedOutcome(status.Result), err
}

// resolve mirrors the engine's kernel resolution: a workload by name, or
// submitted source reduced to its I/O kernel and parsed.
func (p *pipeline) resolve(req server.JobRequest, c *cluster.Cluster) (kernel, error) {
	procs := strconv.Itoa(c.Procs())
	if req.Workload != "" {
		w, err := workload.ByName(req.Workload, c.Procs())
		return kernel{w: w, storeKey: "workload:" + req.Workload + "/" + procs}, err
	}
	src := req.Source
	if req.Discover {
		var k *discovery.Kernel
		var err error
		p.rec.in("discovery.discover", func() { k, err = discovery.Discover(src, discovery.Options{}) })
		if err != nil {
			return kernel{}, err
		}
		p.n.keptLines += len(k.MarkedLines)
		p.n.totalLines += k.TotalLines
		src = k.Source
	}
	var prog *csrc.File
	var err error
	p.rec.in("csrc.parse", func() { prog, err = csrc.Parse(src) })
	sum := sha256.Sum256([]byte(src))
	return kernel{prog: prog, storeKey: "src:" + hex.EncodeToString(sum[:8]) + "/" + procs}, err
}

// record runs the kernel once under the default configuration to capture
// its trace and derive its content hash, cross-validating an interpreted
// program's trace against its static signature.
func (p *pipeline) record(kern kernel, c *cluster.Cluster, space []params.Parameter, seed int64) (replay.KernelEntry, error) {
	rec := p.rec
	var st *workload.Stack
	var err error
	rec.in("workload.build_stack", func() {
		st, err = workload.BuildStack(c, params.DefaultAssignment(space).Settings(), seed)
	})
	if err != nil {
		return replay.KernelEntry{}, err
	}
	var t *replay.Trace
	if kern.prog != nil {
		rec.in("cinterp.record", func() {
			t, err = replay.RecordFunc(st, func(st *workload.Stack) error {
				_, err := cinterp.Run(kern.prog, st.Lib)
				return err
			})
		})
	} else {
		rec.in("workload.record", func() { t, err = replay.Record(kern.w, st) })
	}
	if err != nil {
		return replay.KernelEntry{}, err
	}
	p.n.records++
	p.n.recordEvents += len(t.Events)
	hash := replay.TraceKey(t)
	if kern.prog != nil {
		var sig *analysis.IOSignature
		rec.in("analysis.signature", func() {
			sig = analysis.ComputeSignature(kern.prog, analysis.SignatureOptions{})
		})
		p.n.signatures++
		if sig.Exact {
			p.n.exact++
			if cs, cerr := sig.Concrete(map[string]int64{"nprocs": int64(t.Nprocs)}); cerr == nil {
				rec.in("replay.crossvalidate", func() { err = replay.CrossValidate(t, cs) })
				if err != nil {
					return replay.KernelEntry{}, err
				}
			}
			hash = "sig:" + sig.Hash()
		}
	}
	return replay.KernelEntry{Trace: t, KernelHash: hash}, nil
}

// spanBatch, spanStopper and spanPicker put a span around the three
// things tuner.RunBatch calls out to, so its own time is what is left.
type spanBatch struct {
	rec   *recorder
	name  string
	inner tuner.BatchEvaluator
}

func (b spanBatch) EvaluateBatch(ctx context.Context, batch []*params.Assignment, iteration int) (res []tuner.EvalResult, err error) {
	b.rec.in(b.name, func() { res, err = b.inner.EvaluateBatch(ctx, batch, iteration) })
	return res, err
}

type spanStopper struct {
	rec   *recorder
	inner tuner.Stopper
}

func (s spanStopper) Stop(iteration int, best float64) (stop bool) {
	s.rec.in("rl.stopper", func() { stop = s.inner.Stop(iteration, best) })
	return stop
}
func (s spanStopper) Reset() { s.inner.Reset() }

type spanPicker struct {
	rec   *recorder
	inner tuner.SubsetPicker
}

func (s spanPicker) NextSubset(perf float64, current []bool) (next []bool) {
	s.rec.in("rl.picker", func() { next = s.inner.NextSubset(perf, current) })
	return next
}
func (s spanPicker) Reset() { s.inner.Reset() }

func (p *pipeline) oneShot(req server.JobRequest, c *cluster.Cluster, space []params.Parameter,
	kern kernel, ent replay.KernelEntry, art *kernelArtifacts, view *replay.CacheView) (server.JobStatus, error) {
	cfg := tuner.Config{Space: space, PopSize: req.PopSize, MaxIterations: req.MaxIterations, Seed: req.Seed}
	if req.Pipeline == "tunio" {
		// The daemon hands every job a private copy of its agent.
		agent := &tunio.TunIO{}
		var err error
		p.rec.in("server.agent_copy", func() { err = json.Unmarshal(p.agent, agent) })
		if err != nil {
			return server.JobStatus{}, err
		}
		agent.Reset()
		cfg.Stopper = spanStopper{p.rec, agent.Stopper}
		cfg.Picker = spanPicker{p.rec, agent.Picker}
	}
	reps := req.Reps
	if reps == 0 {
		reps = 3
	}
	leaf := &replayEvaluator{
		p: p, trace: ent.Trace, view: view, art: art, kernelHash: ent.KernelHash,
		cluster: c, stacks: workload.NewStackPool(c), reps: reps, seed: req.Seed,
		sumThenDivide: kern.prog != nil,
	}
	memo := tuner.NewMemo(spanBatch{p.rec, "tuner.evaluate", leaf})
	memo.SetKernelKey(ent.KernelHash)

	var res *tuner.Result
	var err error
	p.rec.in("tuner.run_batch", func() {
		res, err = tuner.RunBatch(context.Background(), cfg, spanBatch{p.rec, "tuner.memo", memo})
	})
	if err != nil {
		return server.JobStatus{}, err
	}
	hits, misses := memo.CacheStats()
	p.n.oneShot++
	p.n.evals += res.Evaluations
	p.n.memoHits += hits
	p.n.memoMisses += misses
	p.n.iterations += res.StoppedAt
	if res.StoppedEarly {
		p.n.stoppedEarly++
	}
	return doneStatus(req, res, nil), nil
}

func (p *pipeline) online(req server.JobRequest, c *cluster.Cluster, space []params.Parameter,
	t *replay.Trace, view *replay.CacheView) (server.JobStatus, error) {
	o := req.Online
	var points tunio.Curve
	var best float64
	dcfg := tuner.DriftConfig{
		Space: space, Cluster: c, Trace: t, Cache: view, Seed: req.Seed,
		Windows: o.Windows, Neighbors: o.Neighbors, Rounds: o.Rounds,
		Reps: req.Reps, Prune: o.Prune, Parallelism: 1,
		// Window points double as curve points, as the engine publishes them.
		Progress: func(wp tuner.WindowPoint) {
			if wp.PerfMBs > best {
				best = wp.PerfMBs
			}
			points = append(points, tunio.Point{
				Iteration: wp.Window, TimeMinutes: (wp.Start + wp.Runtime) / 60,
				IterPerf: wp.PerfMBs, BestPerf: best,
			})
		},
	}
	var dres *tuner.DriftResult
	var err error
	p.rec.in("tuner.drift", func() { dres, err = tuner.RunDrift(context.Background(), dcfg) })
	if err != nil {
		return server.JobStatus{}, err
	}
	p.n.online++
	p.n.driftEvals += dres.Evaluations
	p.n.driftPruned += dres.PrunedEvals
	p.n.driftRetunes += len(dres.Retunes)
	res := &tuner.Result{
		Best: dres.Final, BestPerf: dres.MeanPerf, Evaluations: dres.Evaluations,
		StoppedAt: len(dres.Windows), Curve: points,
	}
	return doneStatus(req, res, dres), nil
}

// doneStatus is the terminal status the daemon would answer with.
func doneStatus(req server.JobRequest, res *tuner.Result, dres *tuner.DriftResult) server.JobStatus {
	out := &server.JobResult{
		BestPerf:     res.BestPerf,
		Baseline:     res.Curve.Baseline(),
		Speedup:      res.Curve.Speedup(),
		StoppedAt:    res.StoppedAt,
		StoppedEarly: res.StoppedEarly,
		Evaluations:  res.Evaluations,
		TotalMinutes: res.Curve.TotalMinutes(),
		BestConfig:   configMap(res.Best),
		BestChanged:  res.Best.ChangedFromDefault(),
		Curve:        curveJSON(res.Curve),
		Drift:        dres,
	}
	kern := req.Workload
	if kern == "" {
		kern = "source"
	}
	return server.JobStatus{ID: "job-0", Kernel: kern, State: "done", Points: len(out.Curve),
		Result: out, Created: time.Unix(0, 0).UTC()}
}

// replayEvaluator scores one generation by staged replay, one genome at a
// time: stage 1 and 2 on a plan miss, a cache lookup on a hit, then stage
// 3 once per repetition on a pooled stack. Seeds and averaging follow the
// engine's trace evaluator, so scores are the ones the daemon computes.
type replayEvaluator struct {
	p          *pipeline
	trace      *replay.Trace
	view       *replay.CacheView
	art        *kernelArtifacts
	kernelHash string
	cluster    *cluster.Cluster
	stacks     *workload.StackPool
	rt         replay.Runtime
	reps       int
	seed       int64
	// sumThenDivide selects the averaging the engine applies to C-source
	// kernels (perf summed then divided, minutes summed per repetition)
	// over the one it applies to workload models (perf divided per
	// repetition, runtime divided once); they differ in rounding only.
	sumThenDivide bool
}

func (e *replayEvaluator) EvaluateBatch(ctx context.Context, batch []*params.Assignment, iteration int) ([]tuner.EvalResult, error) {
	out := make([]tuner.EvalResult, len(batch))
	for i, a := range batch {
		r, err := e.evaluate(a, iteration)
		if err != nil {
			return nil, &tuner.BatchError{Index: i, Err: err}
		}
		out[i] = r
	}
	return out, nil
}

func (e *replayEvaluator) evaluate(a *params.Assignment, iteration int) (tuner.EvalResult, error) {
	rec := e.p.rec
	s := a.Settings()
	base := tuner.SeedFor(e.seed, iteration, a)
	wp, err := e.wirePlan(a, s)
	if err != nil {
		return tuner.EvalResult{}, err
	}
	var perfSum, minutes, seconds float64
	for r := 0; r < e.reps; r++ {
		var st *workload.Stack
		rec.in("workload.stack_get", func() { st, err = e.stacks.Get(s, base+int64(r)*7919) })
		if err != nil {
			return tuner.EvalResult{}, err
		}
		rec.in("replay.stage3", func() { err = e.rt.Exec(wp, st) })
		if err != nil {
			return tuner.EvalResult{}, err
		}
		perf, _ := workload.Perf(st.Sim.Report)
		if e.sumThenDivide {
			perfSum += perf
			minutes += st.Sim.Now() / 60
		} else {
			perfSum += perf / float64(e.reps)
			seconds += st.Sim.Now()
		}
		e.p.n.countExec(st)
		e.stacks.Put(st)
	}
	if e.sumThenDivide {
		return tuner.EvalResult{Perf: perfSum / float64(e.reps), CostMinutes: minutes}, nil
	}
	return tuner.EvalResult{Perf: perfSum, CostMinutes: seconds / 60}, nil
}

// wirePlan returns the configuration's stage-2 artifact. A projection the
// shared cache holds is a real CacheView.WireFor hit. One it does not hold
// is built here by the stage functions themselves, so that stage 1 and
// stage 2 get a span each; the cache is then filled through WireFor, which
// builds it once more — time that goes to the trace.fill row, not to a
// layer.
func (e *replayEvaluator) wirePlan(a *params.Assignment, s params.StackSettings) (*replay.WirePlan, error) {
	rec := e.p.rec
	ppn := e.cluster.ProcsPerNode
	wkey := a.ProjectionKey(wireFootprint)
	var wp *replay.WirePlan
	var err error
	if e.art.wires[wkey] {
		rec.in("replay.lookup", func() { wp, err = e.view.WireFor(a, s, ppn) })
		return wp, err
	}
	pkey := a.ProjectionKey(params.PlanStage)
	sp := e.art.plans[pkey]
	if sp == nil {
		rec.in("replay.stage1", func() { sp, err = replay.BuildStackPlan(e.trace, s.HDF5) })
		if err != nil {
			return nil, err
		}
		e.art.plans[pkey] = sp
	}
	rec.in("replay.stage2", func() { wp = replay.LowerPlan(sp, s.Hints, s.HDF5, ppn) })
	rec.in("trace.fill", func() { _, err = e.view.WireFor(a, s, ppn) })
	e.art.wires[wkey] = true
	return wp, err
}

// countExec reads the simulated layers' own counters after a replay.
func (n *pipelineCounts) countExec(st *workload.Stack) {
	ops := func(layer string) int64 {
		lc := st.Sim.Report.Layer(layer)
		return lc.ReadOps + lc.WriteOps + lc.MetaOps
	}
	n.execs++
	n.hdf5Ops += ops("hdf5")
	n.mpiioOps += ops("mpiio")
	n.lustreOps += ops("lustre")
	l := st.Sim.Report.Layer("lustre")
	n.lustreBytes += l.BytesRead + l.BytesWritten
	n.simSeconds += st.Sim.Now()
}

func (n *pipelineCounts) simOps() int64 { return n.hdf5Ops + n.mpiioOps + n.lustreOps }
