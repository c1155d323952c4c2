// Command tunio tunes a workload's I/O-stack configuration on the
// simulated Cori environment, with or without TunIO's AI components.
//
// Usage:
//
//	tunio -workload flash                     # full TunIO (RL stop + picker)
//	tunio -workload hacc -pipeline hstuner    # plain HSTuner baseline
//	tunio -workload bdcats -nodes 500 -ppn 4 -pipeline heuristic
//	tunio -workload vpic -train-out agent.json  # persist the trained agent
//	tunio -workload vpic -agent agent.json      # reuse a trained agent
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tunio"
	"tunio/internal/cluster"
	"tunio/internal/core"
	"tunio/internal/workload"
)

func main() {
	workloadName := flag.String("workload", "flash", "workload to tune: vpic, hacc, flash, bdcats, macsio")
	nodes := flag.Int("nodes", 4, "simulated nodes")
	ppn := flag.Int("ppn", 32, "processes per node")
	pipeline := flag.String("pipeline", "tunio", "pipeline: tunio, hstuner, heuristic")
	pop := flag.Int("pop", 16, "GA population size")
	iters := flag.Int("iters", 50, "maximum tuning generations")
	reps := flag.Int("reps", 3, "runs averaged per evaluation")
	seed := flag.Int64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", 0, "evaluation workers (0 = one per CPU); the curve is the same for every count")
	agentIn := flag.String("agent", "", "load a trained agent from this JSON file")
	report := flag.Bool("report", false, "print the darshan I/O report of the best configuration")
	agentOut := flag.String("train-out", "", "save the trained agent to this JSON file")
	flag.Parse()

	var agent *tunio.TunIO
	switch {
	case *agentIn != "":
		blob, err := os.ReadFile(*agentIn)
		if err != nil {
			fatal(err)
		}
		agent = &tunio.TunIO{Stopper: &core.EarlyStopper{}, Picker: &core.SmartPicker{}}
		if err := json.Unmarshal(blob, agent); err != nil {
			fatal(fmt.Errorf("loading agent: %w", err))
		}
	case *pipeline == "tunio":
		fmt.Fprintln(os.Stderr, "tunio: training agents offline (sweep on VPIC/FLASH/HACC kernels + synthetic log curves)...")
		var err error
		agent, err = tunio.Train(tunio.TrainConfig{Seed: *seed, StopperHorizon: *iters})
		if err != nil {
			fatal(err)
		}
	}
	if agent != nil && *agentOut != "" {
		blob, err := json.Marshal(agent)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*agentOut, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tunio: agent saved to %s\n", *agentOut)
	}

	opts := tunio.TuneOptions{
		Workload: *workloadName,
		Nodes:    *nodes, ProcsPerNode: *ppn,
		PopSize: *pop, MaxIterations: *iters, Reps: *reps,
		Seed: *seed, Parallelism: *parallel,
	}
	switch *pipeline {
	case "tunio":
		opts.Agent = agent
	case "heuristic":
		opts.Heuristic = true
	case "hstuner":
		// plain pipeline: no stopper, no picker
	default:
		fatal(fmt.Errorf("unknown pipeline %q", *pipeline))
	}

	fmt.Fprintf(os.Stderr, "tunio: tuning %s on %dx%d procs (%s pipeline)...\n",
		*workloadName, *nodes, *ppn, *pipeline)
	res, err := tunio.Tune(opts)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("iter  minutes  best MB/s   RoTI\n")
	for i, p := range res.Curve {
		fmt.Printf("%4d %8.1f %10.0f %6.1f\n", p.Iteration, p.TimeMinutes, p.BestPerf, res.Curve.RoTIAt(i))
	}
	fmt.Printf("\nstopped after iteration %d (early=%v), %d evaluations\n",
		res.StoppedAt, res.StoppedEarly, res.Evaluations)
	fmt.Printf("untuned: %.0f MB/s   tuned: %.0f MB/s   speedup: %.1fx\n",
		res.Curve.Baseline(), res.BestPerf, res.Curve.Speedup())
	fmt.Printf("tuning time: %.0f simulated minutes\n", res.Curve.TotalMinutes())
	fmt.Printf("best configuration:\n  %s\n", res.Best)
	fmt.Printf("changed from defaults: %v\n", res.Best.ChangedFromDefault())

	if *report {
		c := cluster.CoriHaswell(*nodes, *ppn)
		w, err := workload.ByName(*workloadName, c.Procs())
		if err != nil {
			fatal(err)
		}
		run, err := workload.Execute(w, c, res.Best.Settings(), *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ndarshan report of the tuned run (%.1f simulated s):\n%s", run.Runtime, run.Report)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tunio:", err)
	os.Exit(1)
}
