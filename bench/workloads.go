package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"tunio"
	"tunio/internal/cluster"
	"tunio/internal/server"
	"tunio/internal/workload"
)

// The load model is the same on every workload: a closed loop of
// loadClients callers, each on its own connection, against an engine with
// engineWorkers workers, on benchProcs OS threads. They are constants, not
// flags: a number measured under another load model is another benchmark.
const (
	loadClients   = 2
	engineWorkers = 2
	benchProcs    = 2
)

// sizing is a workload's job shape and sample sizes at one scale.
type sizing struct {
	nodes, ppn       int
	pop, iters, reps int
	parallelism      int
	// distinct is the number of distinct specs the job sequence cycles
	// through; 0 means every job is distinct.
	distinct int
	// quality is the number of jobs, from the start of the sequence, the
	// simulated metrics and sim_digest are taken over. The timed phase
	// always serves at least this many, so those numbers repeat exactly
	// for a seed however fast the host is.
	quality int
	// verify is the number of specs re-run through the library on a
	// private engine; traced the number of jobs in the traced pass.
	verify, traced int
	// refJobs is the job count retained_mb is projected to; allocJobs the
	// count of jobs, from the start of the timed phase, alloc_mb_per_job is
	// taken over (0: the whole run).
	refJobs, allocJobs int
	// Online sessions only.
	windows, neighbors, rounds int
}

// workloadDef is one benchmark workload: why it exists, which tail
// percentile its sample supports, and how job i is generated.
type workloadDef struct {
	name string
	why  string
	// tail is the percentile job_tail_ms reports: the highest of
	// p75/p90/p95/p99 that leaves at least ten samples beyond it at the
	// full scale's job count, but no higher than p95 — burst_small's p99
	// sits among the one job in a hundred that meets a listing, and its
	// ten-seed spread reached 32 %. Fixed here so two runs compare the same
	// statistic.
	tail float64
	// warm workloads serve every distinct spec once during set-up.
	warm bool
	// monitorEvery, when > 0, adds GET /v1/jobs and GET /v1/stats after
	// every monitorEvery-th job.
	monitorEvery int
	full, smoke  sizing
	// request builds job i's request from the generator's seeded state.
	request func(g *generator, i int) server.JobRequest
}

var workloads = []workloadDef{
	{
		name: "cold_source",
		why:  "distinct generated C programs on a daemon that never saw them: decode, discovery, parse, recording and stage-1/2 plan misses dominate",
		tail: 0.95,
		full: sizing{nodes: 4, ppn: 32, pop: 16, iters: 5, reps: 1, parallelism: 2,
			quality: 40, verify: 12, traced: 20, refJobs: 128, allocJobs: 128},
		smoke: sizing{nodes: 1, ppn: 8, pop: 4, iters: 3, reps: 1, parallelism: 2,
			quality: 5, verify: 3, traced: 2, refJobs: 8},
		request: coldSourceRequest,
	},
	{
		name: "warm_repeat",
		why:  "the same named kernels re-submitted to a warmed daemon with a fixed HSTuner budget: stage-3 replay and GA bookkeeping are nearly all the time",
		tail: 0.90,
		warm: true,
		full: sizing{nodes: 4, ppn: 32, pop: 16, iters: 6, reps: 3, parallelism: 2,
			distinct: 10, quality: 10, verify: 10, traced: 8, refJobs: 96, allocJobs: 64},
		smoke: sizing{nodes: 1, ppn: 8, pop: 4, iters: 3, reps: 2, parallelism: 2,
			distinct: 5, quality: 5, verify: 3, traced: 2, refJobs: 8},
		request: warmRepeatRequest,
	},
	{
		name: "online_drift",
		why:  "online sessions on a machine that changes regime: RunDrift, pruned (aborted) replays and cross-epoch plan reuse instead of full GA replays",
		tail: 0.95,
		warm: true,
		full: sizing{nodes: 4, ppn: 32, reps: 1, parallelism: 2,
			distinct: 10, quality: 10, verify: 10, traced: 8, refJobs: 96, allocJobs: 96,
			windows: 24, neighbors: 8, rounds: 3},
		smoke: sizing{nodes: 1, ppn: 8, reps: 1, parallelism: 2,
			distinct: 5, quality: 5, verify: 3, traced: 2, refJobs: 8,
			windows: 8, neighbors: 3, rounds: 2},
		request: onlineDriftRequest,
	},
	{
		name:         "burst_small",
		why:          "thousands of tiny jobs plus list/stats monitoring: HTTP, JSON, SSE, session set-up and the growing job table outweigh tuning",
		tail:         0.95,
		warm:         true,
		monitorEvery: 100,
		full: sizing{nodes: 2, ppn: 8, pop: 8, iters: 6, reps: 1, parallelism: 1,
			distinct: 40, quality: 40, verify: 24, traced: 200, refJobs: 4000, allocJobs: 2000},
		smoke: sizing{nodes: 1, ppn: 4, pop: 4, iters: 2, reps: 1, parallelism: 1,
			distinct: 5, quality: 5, verify: 3, traced: 4, refJobs: 16},
		request: burstSmallRequest,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scale selects the full benchmark or the seconds-long smoke form the
// tests run.
type scale struct {
	name string
	// seconds is the default length of the timed phase.
	seconds float64
	// setups is how many times a run sets up at least, and setupSeconds
	// how long its set-ups take together at least (within three times
	// setups); setup_s is their median.
	setups       int
	setupSeconds float64
	// train sizes the daemon's lazy agent training; nil is the daemon's
	// default.
	train *tunio.TrainConfig
}

func scaleByName(name string) (scale, error) {
	switch name {
	case "full":
		return scale{name: name, seconds: 16, setups: 3, setupSeconds: 4}, nil
	case "smoke":
		c := cluster.CoriHaswell(1, 8)
		return scale{name: name, seconds: 0.2, setups: 1, train: &tunio.TrainConfig{
			Cluster:         c,
			Kernels:         []workload.Workload{workload.NewVPIC(c.Procs()), workload.NewFLASH(c.Procs())},
			ExtraRandomRuns: 2,
			StopperEpochs:   2,
			PickerEpochs:    2,
			StopperHorizon:  8,
			Seed:            1,
		}}, nil
	}
	return scale{}, fmt.Errorf("unknown scale %q (want full or smoke)", name)
}

func (d *workloadDef) sizing(sc scale) sizing {
	if sc.name == "smoke" {
		return d.smoke
	}
	return d.full
}

// jobInput is one generated job: the bytes the server receives and the
// request they encode, which the harness keeps to check the answer. Spec
// identifies the distinct spec (the job index when every job is distinct).
type jobInput struct {
	Spec int
	Req  server.JobRequest
	Body []byte
}

// generator turns (workload, scale, seed) into a job sequence. Job i is a
// pure function of those three, so the same seed yields the same bytes
// however many jobs a run gets through. Nothing here reaches the server
// but Body.
//
// What the seed decides differs by workload, for a reason. A tuning job's
// host cost depends heavily on where its job seed takes the search, so a
// workload of ten specs with seed-drawn job seeds costs up to 40 % more or
// less from one benchmark seed to the next — far more than any bound a
// regression could be held to. cold_source has hundreds of jobs per run
// and lets the seed draw everything: programs, sizes, job seeds. The three
// repeating workloads are a fixed catalogue of specs — the traffic mix —
// and the seed decides the order in which each round of it arrives, and
// so which jobs meet each other on the two cores.
type generator struct {
	def  *workloadDef
	sz   sizing
	seed int64
	// specs is the catalogue of a repeating workload, empty when every
	// job is distinct.
	specs []jobInput
	// off shifts cold_source's size perturbation so two seeds never
	// generate the same program.
	off int
}

func newGenerator(def *workloadDef, sc scale, seed int64) (*generator, error) {
	g := &generator{def: def, sz: def.sizing(sc), seed: seed}
	g.off = rand.New(rand.NewSource(seed)).Intn(coldUnits)
	for k := 0; k < g.sz.distinct; k++ {
		in, err := encodeJob(k, def.request(g, k))
		if err != nil {
			return nil, err
		}
		g.specs = append(g.specs, in)
	}
	return g, nil
}

func encodeJob(spec int, req server.JobRequest) (jobInput, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return jobInput{}, err
	}
	return jobInput{Spec: spec, Req: req, Body: body}, nil
}

// job returns the i-th job of the sequence: for a repeating workload, the
// catalogue round after round, each round in an order of its own.
func (g *generator) job(i int) (jobInput, error) {
	if n := len(g.specs); n > 0 {
		order := rand.New(rand.NewSource(g.seed*7919 + int64(i/n))).Perm(n)
		return g.specs[order[i%n]], nil
	}
	return encodeJob(i, g.def.request(g, i))
}

var namedKernels = []string{"vpic", "hacc", "flash", "macsio", "bdcats"}

// catalogueSeed is the job seed of a repeating workload's k-th spec.
func catalogueSeed(k int) int64 { return 1000 + 37*int64(k) }

// Cold programs come in blocks of coldShapes: every block holds each of
// the five applications at each of four size classes once, in an order the
// seed permutes. Work per block is therefore the same for every seed, and
// quantiles of job time are taken over a fixed mixture. A per-job unit u,
// a full-cycle walk over [0, coldUnits), perturbs the extents of each
// program so that all kernel hashes of a run of up to coldUnits jobs differ.
const (
	coldShapes = 20
	coldUnits  = 1024
	coldStride = 389 // coprime with coldUnits
)

// flashNZB are the z-extents of a FLASH block, one per u/32. The engine
// keys a source kernel by its I/O signature, which sees a FLASH program's
// extents only as their product (bytes per write), not the dataset shape or
// chunking: two programs with BLOCKS×NZB equal share a kernel hash, and the
// second is served the first's trace and curve. A block count of at most 63
// times a prime above 63 makes every product of the 1024 units distinct.
var flashNZB = [coldUnits / 32]int64{
	67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
	149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
}

// coldProgram is the C source of one cold job: application shape%5 at size
// class shape/5, with one extent perturbed by the unit u.
func coldProgram(shape int, u int64, procs int, path string) string {
	app, class := shape%5, shape/5
	perSeg := int64(16384+8192*class) + u
	switch app {
	case 0:
		return (&workload.VPIC{Procs: procs, ParticlesPerRank: 16 * perSeg, Vars: 6 + 2*(class%2),
			Steps: 1 + class/2, Segments: 16, ComputeFlops: 2e9, Path: path}).CSource()
	case 1:
		return (&workload.HACC{Procs: procs, ParticlesPerRank: 16 * perSeg, Steps: 1 + class/2,
			Segments: 16, ComputeFlops: 1e9, Path: path}).CSource()
	case 2:
		return (&workload.FLASH{Procs: procs, BlocksPerRank: 32 + u%32, NXB: 8, NYB: 8, NZB: flashNZB[u/32],
			Unknowns: 6 + 2*class, Steps: 1, ComputeFlops: 1e9, Path: path}).CSource()
	case 3:
		return (&workload.MACSio{Procs: procs, PartsPerRank: 4, PartBytes: 8 * (4*perSeg + 65536),
			Dumps: 6 + 2*class, ComputeFlops: 6e9, Path: path}).CSource()
	default:
		return (&workload.BDCATS{Procs: procs, ParticlesPerRank: 16 * perSeg, Vars: 3 + class,
			Segments: 16, ComputeFlops: 1e9, InPath: path, OutPath: path + ".out"}).CSource()
	}
}

func coldSourceRequest(g *generator, i int) server.JobRequest {
	block, pos := i/coldShapes, i%coldShapes
	perm := rand.New(rand.NewSource(g.seed*7919 + int64(block))).Perm(coldShapes)
	u := int64((g.off + coldStride*i) % coldUnits)
	return server.JobRequest{
		Source:        coldProgram(perm[pos], u, g.sz.nodes*g.sz.ppn, fmt.Sprintf("/scratch/app%04d.h5", i)),
		Discover:      true,
		Pipeline:      "tunio",
		Nodes:         g.sz.nodes,
		ProcsPerNode:  g.sz.ppn,
		PopSize:       g.sz.pop,
		MaxIterations: g.sz.iters,
		Reps:          g.sz.reps,
		Seed:          g.seed*100003 + int64(i),
		Parallelism:   g.sz.parallelism,
	}
}

func warmRepeatRequest(g *generator, k int) server.JobRequest {
	return server.JobRequest{
		Workload:      namedKernels[k%len(namedKernels)],
		Nodes:         g.sz.nodes,
		ProcsPerNode:  g.sz.ppn,
		PopSize:       g.sz.pop,
		MaxIterations: g.sz.iters,
		Reps:          g.sz.reps,
		Seed:          catalogueSeed(k),
		Parallelism:   g.sz.parallelism,
	}
}

// onlineDriftRequest is an online session on a machine that starts
// degraded (half the OST bandwidth, a loaded network, tripled contention)
// and turns, at a time of the spec's own, into a different one (a few failed-over
// OSTs, a busy metadata server): the controller has to notice the
// bandwidth moving off its profile and re-tune across the epoch change.
func onlineDriftRequest(g *generator, k int) server.JobRequest {
	turn := 120 + 6*float64(k)
	return server.JobRequest{
		Workload:     namedKernels[k%len(namedKernels)],
		Nodes:        g.sz.nodes,
		ProcsPerNode: g.sz.ppn,
		Reps:         g.sz.reps,
		Seed:         catalogueSeed(k),
		Parallelism:  g.sz.parallelism,
		Drift: &tunio.Drift{Seed: int64(k), Regimes: []tunio.Regime{
			{Start: 0, OSTLoad: 0.5, NICLoad: 0.3, Contention: 3},
			{Start: turn, SlowOSTs: 6, MDSLoad: 0.4},
		}},
		Online: &server.OnlineRequest{
			Windows:   g.sz.windows,
			Neighbors: g.sz.neighbors,
			Rounds:    g.sz.rounds,
			Prune:     true,
		},
	}
}

func burstSmallRequest(g *generator, k int) server.JobRequest {
	return server.JobRequest{
		Workload:      namedKernels[k%len(namedKernels)],
		Nodes:         g.sz.nodes,
		ProcsPerNode:  g.sz.ppn,
		PopSize:       g.sz.pop,
		MaxIterations: g.sz.iters,
		Reps:          g.sz.reps,
		Seed:          catalogueSeed(k),
		Parallelism:   g.sz.parallelism,
	}
}

// jobSpec is the library form of a request: the mapping the server's
// submit handler applies, kept here so the private-engine check and the
// traced pipeline run exactly what the daemon ran. agent is a private
// copy for pipeline "tunio" and nil otherwise.
func jobSpec(req server.JobRequest, agent *tunio.TunIO) tunio.JobSpec {
	spec := tunio.JobSpec{
		Workload:      req.Workload,
		Source:        req.Source,
		Discover:      req.Discover,
		Nodes:         req.Nodes,
		ProcsPerNode:  req.ProcsPerNode,
		Agent:         agent,
		PopSize:       req.PopSize,
		MaxIterations: req.MaxIterations,
		Reps:          req.Reps,
		Seed:          req.Seed,
		Parallelism:   req.Parallelism,
		Drift:         req.Drift,
	}
	if o := req.Online; o != nil {
		spec.Online = &tunio.OnlineSpec{
			Windows:   o.Windows,
			Neighbors: o.Neighbors,
			Rounds:    o.Rounds,
			Prune:     o.Prune,
		}
	}
	return spec
}
