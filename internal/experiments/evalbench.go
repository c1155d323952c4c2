package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"tunio/internal/csrc"
	"tunio/internal/params"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

// evalPopulation is the genome count the evaluator benchmark scores with
// each engine — the acceptance scale of the staged-replay speedup claim.
const evalPopulation = 32

// EvalVariant is one engine's cost on one workload's population.
type EvalVariant struct {
	NsPerGenome  float64 `json:"ns_per_genome"`
	BytesPerEval float64 `json:"b_per_genome"`
}

// EvalRow compares replay against the live reference on one workload.
type EvalRow struct {
	Workload string      `json:"workload"`
	Direct   EvalVariant `json:"direct"` // the live reference: re-interpret the kernel per genome
	Traced   EvalVariant `json:"traced"` // staged trace replay (recording included)
	Speedup  float64     `json:"speedup"`

	// Stage-cache effectiveness over the population.
	PlanHitRate float64 `json:"plan_hit_rate"`
	WireHitRate float64 `json:"wire_hit_rate"`

	// Identical reports whether every genome scored bit-identically both
	// ways (the correctness half of the claim, re-checked in situ).
	Identical bool `json:"identical"`
}

// EvalBenchResult is the staged trace-replay evaluation benchmark: for
// every paper workload it scores the same random population with the
// live reference (tuner.SeededCSourceEvaluator) and with the
// TraceEvaluator (whose one-time recording cost is charged to its total),
// comparing per-genome wall time, per-genome allocation, cache hit rates,
// and score identity.
type EvalBenchResult struct {
	Population int       `json:"population"`
	Reps       int       `json:"reps"`
	Rows       []EvalRow `json:"workloads"`
}

// EvalBench runs the benchmark over every paper workload.
func EvalBench(cfg Config) (*EvalBenchResult, error) {
	return evalBench(cfg, sliceWorkloads)
}

// evalBench runs the benchmark over the named workloads (split out so the
// unit test can cover a single one).
func evalBench(cfg Config, names []string) (*EvalBenchResult, error) {
	c := cfg.componentCluster()
	out := &EvalBenchResult{Population: evalPopulation, Reps: cfg.reps()}
	for _, name := range names {
		w, err := workload.ByName(name, c.Procs())
		if err != nil {
			return nil, err
		}
		cw, ok := w.(workload.HasCSource)
		if !ok {
			return nil, fmt.Errorf("evalbench: %s has no C source", name)
		}
		// The reference folds its program in place; replay gets its own.
		prog, err := csrc.Parse(cw.CSource())
		if err != nil {
			return nil, fmt.Errorf("evalbench: %s: %w", name, err)
		}
		refProg, _ := csrc.Parse(cw.CSource())

		// The population mirrors a converging GA's: each genome is 1-3
		// mutations off the incumbent default. That is the regime the
		// projection cache serves — genomes differing only outside a stage's
		// footprint share its artifact.
		space := params.Space()
		rng := rand.New(rand.NewSource(cfg.Seed + 500))
		genomes := make([]*params.Assignment, evalPopulation)
		for i := range genomes {
			a := params.DefaultAssignment(space)
			for k := 1 + rng.Intn(3); k > 0; k-- {
				p := space[rng.Intn(len(space))]
				if err := a.SetIndex(p.Name, rng.Intn(len(p.Values))); err != nil {
					return nil, err
				}
			}
			genomes[i] = a
		}

		// Both derive their seeds from (seed, iteration, genome), so the
		// same genomes compare bit-identical work. Replay's recording run
		// happens inside its first timed evaluation.
		direct := &tuner.SeededCSourceEvaluator{Prog: refProg, Cluster: c, Reps: cfg.reps(), Seed: cfg.Seed + 500}
		var traced *tuner.TraceEvaluator
		replayed := func(a *params.Assignment, iteration int) (float64, float64, error) {
			if traced == nil {
				k, err := tuner.ResolveKernel(tuner.KernelSource{Prog: prog, Cluster: c, Seed: cfg.Seed + 500}, space)
				if err != nil {
					return 0, 0, err
				}
				traced = tuner.NewTraceEvaluator(k, c, cfg.reps(), cfg.Seed+500)
			}
			return traced.Evaluate(a, iteration)
		}

		row := EvalRow{Workload: name, Identical: true}
		dPerf, dCost, err := scorePopulation(direct.Evaluate, genomes, &row.Direct)
		if err != nil {
			return nil, fmt.Errorf("evalbench: %s direct: %w", name, err)
		}
		tPerf, tCost, err := scorePopulation(replayed, genomes, &row.Traced)
		if err != nil {
			return nil, fmt.Errorf("evalbench: %s traced: %w", name, err)
		}
		for i := range genomes {
			if dPerf[i] != tPerf[i] || dCost[i] != tCost[i] {
				row.Identical = false
			}
		}
		if row.Traced.NsPerGenome > 0 {
			row.Speedup = row.Direct.NsPerGenome / row.Traced.NsPerGenome
		}
		stats := traced.Stats()
		row.PlanHitRate = stats.PlanHitRate()
		row.WireHitRate = stats.WireHitRate()
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// scorePopulation evaluates every genome once, filling the variant's
// per-genome wall time and allocation, and returns the scores.
func scorePopulation(eval tuner.EvalFunc, genomes []*params.Assignment, v *EvalVariant) (perf, cost []float64, err error) {
	perf = make([]float64, len(genomes))
	cost = make([]float64, len(genomes))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i, g := range genomes {
		if perf[i], cost[i], err = eval(g, i); err != nil {
			return nil, nil, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	v.NsPerGenome = float64(elapsed.Nanoseconds()) / float64(len(genomes))
	v.BytesPerEval = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(genomes))
	return perf, cost, nil
}

// String renders the benchmark table.
func (r *EvalBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Evaluation: the live reference (direct interpretation) vs staged trace replay (population %d, %d reps)\n",
		r.Population, r.Reps)
	fmt.Fprintf(&b, "%-8s %14s %14s %8s %12s %12s %10s %10s %6s\n",
		"workload", "direct ns/g", "traced ns/g", "speedup", "direct B/g", "traced B/g",
		"plan hit", "wire hit", "ident")
	atLeast3x := 0
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %14.0f %14.0f %7.1fx %12.0f %12.0f %9.0f%% %9.0f%% %6v\n",
			row.Workload, row.Direct.NsPerGenome, row.Traced.NsPerGenome, row.Speedup,
			row.Direct.BytesPerEval, row.Traced.BytesPerEval,
			row.PlanHitRate*100, row.WireHitRate*100, row.Identical)
		if row.Speedup >= 3 && row.Identical {
			atLeast3x++
		}
	}
	fmt.Fprintf(&b, "replay at least 3x faster with identical scores on %d/%d workloads (recording cost included)\n",
		atLeast3x, len(r.Rows))
	return b.String()
}
