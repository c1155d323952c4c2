package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tunio/internal/server"
)

// runConfig is one invocation: a workload at a scale, generated from a
// seed, measured for a number of seconds.
type runConfig struct {
	def     *workloadDef
	sc      scale
	seed    int64
	seconds float64
	outDir  string
}

func (c runConfig) newReport(pass string) *report {
	return &report{
		values:   map[string]float64{},
		Workload: c.def.name, Pass: pass, Seed: c.seed, Scale: c.sc.name, Seconds: c.seconds,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), TailPct: c.def.tail,
	}
}

// bed is one set-up: a running daemon, the job sequence, and — for warm
// workloads — caches that have already seen every distinct spec.
type bed struct {
	cfg  runConfig
	d    *daemon
	gen  *generator
	sz   sizing
	jobs []jobInput // distinct jobs generated ahead of the timed phase
	// first is the sequence index the next load starts at.
	first int
	// allocMark is the memory statistics at the moment the load's
	// sz.allocJobs-th job completed.
	allocMark runtime.MemStats
	// took is what a user waits before the first timed request: daemon
	// construction, input generation, lazy agent training, warming.
	took time.Duration
}

// trainerJob is the set-up request that makes a fresh daemon train its
// agent, as its first "tunio" job would.
var trainerJob = server.JobRequest{
	Workload: "macsio", Pipeline: "tunio",
	Nodes: 1, ProcsPerNode: 4, PopSize: 4, MaxIterations: 2, Reps: 1, Seed: 1,
}

func setUp(cfg runConfig) (*bed, error) {
	runtime.GC()
	start := time.Now()
	d, err := startDaemon(cfg.sc)
	if err != nil {
		return nil, err
	}
	b := &bed{cfg: cfg, d: d, sz: cfg.def.sizing(cfg.sc)}
	fail := func(err error) (*bed, error) {
		d.stop()
		return nil, fmt.Errorf("%s set-up: %w", cfg.def.name, err)
	}
	if b.gen, err = newGenerator(cfg.def, cfg.sc, cfg.seed); err != nil {
		return fail(err)
	}
	// Distinct jobs are generated well past what the timed phase can
	// serve; job() generates on demand beyond that.
	if b.sz.distinct == 0 {
		for i := 0; i < 4*b.sz.refJobs; i++ {
			in, err := b.gen.job(i)
			if err != nil {
				return fail(err)
			}
			b.jobs = append(b.jobs, in)
		}
	}
	first, err := b.job(0)
	if err != nil {
		return fail(err)
	}
	if first.Req.Pipeline == "tunio" {
		in, err := encodeJob(-1, trainerJob)
		if err != nil {
			return fail(err)
		}
		c := newClient(d.base)
		_, st, err := c.runJob(in.Body)
		c.close()
		if err == nil {
			err = checkServed(in, st)
		}
		if err != nil {
			return fail(fmt.Errorf("agent training job: %w", err))
		}
	}
	if cfg.def.warm {
		warm, _ := b.load(0, b.sz.distinct)
		for _, s := range warm {
			if s.Err != "" {
				return fail(fmt.Errorf("warming spec %d: %s", s.Spec, s.Err))
			}
		}
	}
	b.took = time.Since(start)
	return b, nil
}

func (b *bed) job(i int) (jobInput, error) {
	if i < len(b.jobs) {
		return b.jobs[i], nil
	}
	return b.gen.job(i)
}

// served is what the harness keeps of one job: the times the caller saw,
// the digest of what the daemon decided, and the figures the metrics are
// made from. The full status is dropped at once so the harness's own
// memory does not grow with the run.
type served struct {
	Index int
	Spec  int
	Times jobTimes
	Err   string
	Dig   string
	// Kernel is the engine's content hash of the job's kernel.
	Kernel string

	Speedup, Baseline, FinalBest, Minutes float64
	Evaluations                           int
}

func summarize(i int, in jobInput, t jobTimes, st *server.JobStatus, err error) served {
	s := served{Index: i, Spec: in.Spec, Times: t}
	if err == nil {
		err = checkServed(in, st)
	}
	if err != nil {
		s.Err = err.Error()
		return s
	}
	r := st.Result
	s.Dig = servedOutcome(r).digest()
	s.Kernel = r.Engine.KernelHash
	s.Speedup, s.Baseline, s.Minutes = r.Speedup, r.Baseline, r.TotalMinutes
	s.FinalBest = r.Curve[len(r.Curve)-1].BestPerf
	s.Evaluations = r.Evaluations
	return s
}

// jobID is the part of a listing the monitoring traffic reads.
type jobID struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// load is the closed loop: loadClients callers, one connection each, each
// submitting its next job of the shared sequence only after the previous
// one reached "done". It runs until seconds have passed and at least
// minJobs were issued, lets jobs in flight finish, and returns every
// job's record (ordered by sequence index) and the wall time from the
// first submit to the last completion.
func (b *bed) load(seconds float64, minJobs int) ([]served, time.Duration) {
	var (
		next     atomic.Int64
		finished atomic.Int64
		mu       sync.Mutex
		out      []served
		wg       sync.WaitGroup
		start    = time.Now()
		stopAt   = start.Add(time.Duration(seconds * float64(time.Second)))
	)
	next.Store(int64(b.first))
	minJobs += b.first
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(b.d.base)
			defer cl.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= minJobs && !time.Now().Before(stopAt) {
					return
				}
				in, err := b.job(i)
				var s served
				if err != nil {
					s = summarize(i, in, jobTimes{}, nil, err)
				} else {
					t, st, err := cl.runJob(in.Body)
					s = summarize(i, in, t, st, err)
				}
				if n := b.cfg.def.monitorEvery; n > 0 && (i+1)%n == 0 && s.Err == "" {
					var list []jobID
					var stats server.StatsResponse
					if _, err := cl.get("/v1/jobs", &list); err != nil {
						s.Err = "monitoring list: " + err.Error()
					} else if _, err := cl.get("/v1/stats", &stats); err != nil {
						s.Err = "monitoring stats: " + err.Error()
					}
				}
				if n := int(finished.Add(1)); n == b.sz.allocJobs {
					runtime.ReadMemStats(&b.allocMark)
				}
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(out, func(i, k int) bool { return out[i].Index < out[k].Index })
	return out, elapsed
}

// heapAfterGC is the live heap once garbage is gone. The second collection
// frees what sync.Pools held through the first.
func heapAfterGC() (live float64, ms runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc), ms
}

const mb = 1 << 20

// endToEndPass runs the untraced pass of one workload: set up (several times,
// keeping the last), serve the closed loop for the configured seconds
// with no timers inside the program, then check every answer.
func endToEndPass(cfg runConfig) (*report, error) {
	rep := cfg.newReport("end_to_end")
	var b *bed
	var setups []float64
	var setupTotal float64
	// A short set-up is a noisy reading: it is repeated, up to three times
	// as often, until the set-ups together took setupSeconds.
	for i := 0; i < cfg.sc.setups || (setupTotal < cfg.sc.setupSeconds && i < 3*cfg.sc.setups); i++ {
		if b != nil {
			b.d.stop()
		}
		var err error
		if b, err = setUp(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, b.took.Seconds())
		setupTotal += b.took.Seconds()
	}
	defer b.d.stop()

	base, ms0 := heapAfterGC()
	results, elapsed := b.load(cfg.seconds, b.sz.quality)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	end, _ := heapAfterGC()

	var ok []served
	for _, s := range results {
		if s.Err != "" {
			rep.Failures = append(rep.Failures, fmt.Sprintf("job %d (spec %d): %s", s.Index, s.Spec, s.Err))
			continue
		}
		ok = append(ok, s)
	}
	first, disagree := firstBySpec(ok)
	rep.Failures = append(rep.Failures, disagree...)
	if b.sz.distinct == 0 {
		rep.Failures = append(rep.Failures, sharedKernels(ok)...)
	}
	verified, bad, err := verifyAgainstLibrary(cfg, b, first)
	if err != nil {
		return nil, err
	}
	rep.Verified = verified
	rep.Failures = append(rep.Failures, bad...)
	if len(ok) == 0 {
		return nil, fmt.Errorf("%s: no job succeeded: %v", cfg.def.name, rep.Failures)
	}

	lat := make([]float64, len(ok))
	for i, s := range ok {
		lat[i] = float64(s.Times.Done) / float64(time.Millisecond)
	}
	sort.Float64s(lat)
	jobs := float64(len(ok))
	rep.Jobs = len(ok)
	rep.LatencyQ1, rep.LatencyQ3 = quantile(lat, 0.25), quantile(lat, 0.75)
	rep.LatencyHi = [3]float64{quantile(lat, 0.90), quantile(lat, 0.95), quantile(lat, 0.99)}
	rep.set("setup_s", median(setups))
	rep.set("jobs_per_s", jobs/elapsed.Seconds())
	rep.set("job_p50_ms", quantile(lat, 0.5))
	rep.set("job_tail_ms", quantile(lat, cfg.def.tail))
	// Allocation is taken over a fixed count of jobs where the run got that
	// far: on burst_small a listing costs more the more jobs the table
	// holds, so bytes per job over the whole run rise with the host's speed.
	allocTo, allocJobs := ms1.TotalAlloc, len(results)
	if n := b.sz.allocJobs; n > 0 && len(results) >= n {
		allocTo, allocJobs = b.allocMark.TotalAlloc, n
	}
	rep.set("alloc_mb_per_job", float64(allocTo-ms0.TotalAlloc)/mb/float64(allocJobs))
	// Live heap with the daemon still up, projected from the jobs served
	// to the workload's reference count: a faster build serves more jobs
	// in the same seconds and must not be charged for their table rows.
	rep.set("retained_mb", (base+(end-base)*float64(b.sz.refJobs)/float64(len(results)))/mb)

	quality := ok
	if len(quality) > b.sz.quality {
		quality = quality[:b.sz.quality]
	}
	quality = append([]served(nil), quality...)
	sort.Slice(quality, func(i, k int) bool { return quality[i].Spec < quality[k].Spec })
	var gains, rotis []float64
	h := sha256.New()
	for _, s := range quality {
		gains = append(gains, s.Speedup)
		rotis = append(rotis, ratio(s.FinalBest-s.Baseline, s.Minutes))
		h.Write([]byte(s.Dig))
	}
	rep.SimDigest = hex.EncodeToString(h.Sum(nil)[:8])
	rep.set("tuned_gain", geomean(gains))
	rep.set("roti_mbps_per_min", mean(rotis))

	if err := rep.finish(endToEnd, len(results), len(results)-len(ok), len(rep.Failures) == 0); err != nil {
		return nil, err
	}
	return rep, nil
}

// firstBySpec returns the first served occurrence of every spec, in
// sequence order, and reports specs whose later occurrences did not
// produce the same outcome: a repeated job must repeat its curve bit for
// bit, warm or cold, whichever caller ran it.
func firstBySpec(ok []served) (first []served, disagree []string) {
	at := map[int]int{}
	for _, s := range ok {
		i, seen := at[s.Spec]
		if !seen {
			at[s.Spec] = len(first)
			first = append(first, s)
		} else if f := first[i]; f.Dig != s.Dig {
			disagree = append(disagree, fmt.Sprintf("spec %d: job %d served %s, job %d served %s", s.Spec, f.Index, f.Dig, s.Index, s.Dig))
		}
	}
	return first, disagree
}

// sharedKernels reports jobs of a workload of distinct programs that the
// engine took for a kernel it had already seen: the later job was scored on
// the earlier one's trace, so its curve is not the one a fresh engine
// computes, and the workload was not cold.
func sharedKernels(ok []served) (shared []string) {
	at := map[string]int{}
	for _, s := range ok {
		if i, seen := at[s.Kernel]; seen {
			shared = append(shared, fmt.Sprintf("jobs %d and %d are different programs with one kernel hash %s", i, s.Index, s.Kernel))
		} else {
			at[s.Kernel] = s.Index
		}
	}
	return shared
}

// corruptDigest, when set by a test, damages the first reference digest so
// the comparison below must notice.
var corruptDigest bool

// verifyAgainstLibrary re-runs a seeded sample of the served specs through
// the library on a private engine nothing else has touched, and requires
// each served curve to equal the solo one bit for bit — the repository's
// core contract (served = solo, warm = cold, concurrent = serial).
func verifyAgainstLibrary(cfg runConfig, b *bed, first []served) (verified int, failures []string, err error) {
	first = append([]served(nil), first...)
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(first), func(i, k int) { first[i], first[k] = first[k], first[i] })
	if len(first) > b.sz.verify {
		first = first[:b.sz.verify]
	}
	sample := make([]jobInput, len(first))
	for i, s := range first {
		if sample[i], err = b.job(s.Index); err != nil {
			return 0, nil, err
		}
	}
	lib, err := newLibrary(cfg.sc, needsAgent(sample))
	if err != nil {
		return 0, nil, err
	}
	digs := make([]string, len(sample))
	errs := make([]error, len(sample))
	var wg sync.WaitGroup
	var next atomic.Int64
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(sample); i = int(next.Add(1)) - 1 {
				var o outcome
				if o, _, errs[i] = lib.run(sample[i]); errs[i] == nil {
					digs[i] = o.digest()
				}
			}
		}()
	}
	wg.Wait()
	if corruptDigest && len(digs) > 0 {
		digs[0] = "corrupt-" + digs[0]
	}
	for i, in := range sample {
		switch {
		case errs[i] != nil:
			failures = append(failures, fmt.Sprintf("spec %d: library run failed: %v", in.Spec, errs[i]))
		case digs[i] != first[i].Dig:
			failures = append(failures, fmt.Sprintf("spec %d: served %s, library %s", in.Spec, first[i].Dig, digs[i]))
		default:
			verified++
		}
	}
	return verified, failures, nil
}
