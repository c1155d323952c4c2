package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one metric as BENCHMARK.json lists it. Bound is the
// share of the parent's median by which an end-to-end metric may get worse
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Sim marks a simulated quantity: it repeats exactly for a seed and
	// must not move under a change that only alters host speed.
	Sim bool
}

// endToEnd are the metrics a user of the daemon sees, the same on every
// workload. A bound is about three times the widest interquartile spread
// seen over ten seeds on the commit that added the benchmark, capped at
// the 0.25 the benchmark contract allows — which is where all four timing
// metrics sit, on a host whose speed swings by a fifth (README has the
// tables).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "job_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_job", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "retained_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "tuned_gain", Unit: "ratio", Better: "higher", Bound: 0.05, Sim: true},
	{Name: "roti_mbps_per_min", Unit: "MB/s/min", Better: "higher", Bound: 0.12, Sim: true},
}

// perLayer are the single-layer metrics of the traced pass. The arrow in
// README's table says which end-to-end metric each should move, on which
// workload.
var perLayer = []metricDef{
	{Name: "server.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.decode_us", Unit: "us", Better: "lower"},
	{Name: "server.first_point_ms", Unit: "ms", Better: "lower"},
	{Name: "server.status_ms", Unit: "ms", Better: "lower"},
	{Name: "server.sse_replay_ms", Unit: "ms", Better: "lower"},
	{Name: "server.list_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stats_ms", Unit: "ms", Better: "lower"},
	{Name: "server.encode_us", Unit: "us", Better: "lower"},
	{Name: "server.agent_copy_ms", Unit: "ms", Better: "lower"},
	{Name: "server.jobs_retained", Unit: "count", Better: "lower"},

	{Name: "engine.library_job_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.http_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.resolve_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.kernel_store_hit_share", Unit: "ratio", Better: "higher"},

	{Name: "discovery.discover_ms", Unit: "ms", Better: "lower"},
	{Name: "discovery.kept_line_share", Unit: "ratio", Better: "lower"},
	{Name: "csrc.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.signature_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.exact_share", Unit: "ratio", Better: "higher"},
	{Name: "cinterp.record_ms", Unit: "ms", Better: "lower"},
	{Name: "cinterp.events_per_record", Unit: "count", Better: "lower", Sim: true},
	{Name: "replay.crossvalidate_us", Unit: "us", Better: "lower"},
	{Name: "workload.record_ms", Unit: "ms", Better: "lower"},

	{Name: "replay.stage1_ms_per_miss", Unit: "ms", Better: "lower"},
	{Name: "replay.stage1_misses_per_job", Unit: "count", Better: "lower", Sim: true},
	{Name: "replay.stage2_ms_per_miss", Unit: "ms", Better: "lower"},
	{Name: "replay.stage2_misses_per_job", Unit: "count", Better: "lower", Sim: true},
	{Name: "replay.plan_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "replay.wire_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "replay.lookup_us_per_hit", Unit: "us", Better: "lower"},

	{Name: "replay.stage3_ms_per_exec", Unit: "ms", Better: "lower"},
	{Name: "replay.stage3_execs_per_job", Unit: "count", Better: "lower", Sim: true},
	{Name: "replay.stage3_ns_per_sim_op", Unit: "ns", Better: "lower"},
	{Name: "workload.stack_get_us", Unit: "us", Better: "lower"},
	{Name: "hdf5.sim_ops_per_exec", Unit: "count", Better: "lower", Sim: true},
	{Name: "mpiio.sim_ops_per_exec", Unit: "count", Better: "lower", Sim: true},
	{Name: "lustre.sim_ops_per_exec", Unit: "count", Better: "lower", Sim: true},
	{Name: "lustre.sim_mb_per_exec", Unit: "MB", Better: "lower", Sim: true},
	{Name: "cluster.sim_s_per_exec", Unit: "s", Better: "lower", Sim: true},

	{Name: "tuner.self_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "tuner.evals_per_job", Unit: "count", Better: "lower", Sim: true},
	{Name: "tuner.evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "tuner.iterations_per_job", Unit: "count", Better: "lower", Sim: true},
	{Name: "tuner.memo_hit_share", Unit: "ratio", Better: "higher", Sim: true},
	{Name: "tuner.stopped_early_share", Unit: "ratio", Better: "higher", Sim: true},
	{Name: "rl.picker_us_per_iter", Unit: "us", Better: "lower"},
	{Name: "rl.stopper_us_per_iter", Unit: "us", Better: "lower"},
	{Name: "tuner.drift_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "tuner.drift_evals_per_job", Unit: "count", Better: "lower", Sim: true},
	{Name: "tuner.drift_pruned_share", Unit: "ratio", Better: "higher", Sim: true},
	{Name: "tuner.drift_retunes_per_job", Unit: "count", Better: "lower", Sim: true},

	{Name: "train.run_s", Unit: "s", Better: "lower"},
	{Name: "train.resume_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.store_save_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.store_load_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.store_mb", Unit: "MB", Better: "lower"},

	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.mallocs_per_job", Unit: "count", Better: "lower"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.pre_stage3_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.curve_match_share", Unit: "ratio", Better: "higher"},
}

// reading is one measured metric on the result line.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: exactly these keys.
type resultLine struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

// report is everything one pass of one workload produced: the result line
// plus the context a reader needs and the driver does not.
type report struct {
	Workload   string
	Pass       string // "end_to_end" or "per_layer"
	Seed       int64
	Scale      string
	Seconds    float64
	GoMaxProcs int
	NumCPU     int

	Jobs      int     // jobs that reached done with a checked curve
	TailPct   float64 // percentile job_tail_ms reports
	LatencyQ1 float64 // quartiles beside job_p50_ms
	LatencyQ3 float64
	LatencyHi [3]float64 // p90, p95, p99, whichever of them job_tail_ms is
	SimDigest string     // hash of the quality sample's curve digests
	Verified  int        // specs re-run through the library, all bit-identical
	Failures  []string

	values map[string]float64
	line   resultLine
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// finish builds the result line from the values set, insisting that every
// metric of the pass was measured.
func (r *report) finish(defs []metricDef, attempted, failed int, correct bool) error {
	r.line = resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]reading{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		r.line.Metrics[d.Name] = reading{Value: v, Unit: d.Unit}
	}
	return nil
}

// print writes the human-readable table and then the result line.
func (r *report) print(w io.Writer, defs []metricDef) error {
	fmt.Fprintf(w, "# %s %s seed=%d scale=%s seconds=%g gomaxprocs=%d num_cpu=%d clients=%d workers=%d\n",
		r.Workload, r.Pass, r.Seed, r.Scale, r.Seconds, r.GoMaxProcs, r.NumCPU, loadClients, engineWorkers)
	if r.Pass == "end_to_end" {
		fmt.Fprintf(w, "# jobs=%d job_q1_ms=%.3f job_q3_ms=%.3f job_p90_ms=%.3f job_p95_ms=%.3f job_p99_ms=%.3f tail=p%.0f verified=%d sim_digest=%s\n",
			r.Jobs, r.LatencyQ1, r.LatencyQ3, r.LatencyHi[0], r.LatencyHi[1], r.LatencyHi[2], 100*r.TailPct, r.Verified, r.SimDigest)
	}
	for _, d := range defs {
		kind := "host"
		if d.Sim {
			kind = "simulated"
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf(" bound=%g", d.Bound)
		}
		fmt.Fprintf(w, "%-34s %16.6g %-9s better=%-6s %s%s\n", d.Name, r.values[d.Name], d.Unit, d.Better, kind, bound)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	b, err := json.Marshal(r.line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
