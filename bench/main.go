// Command bench is the repository's benchmark: it drives an in-process
// tuniod over loopback HTTP with generated tuning jobs, checks every curve
// it is served, and prints the end-to-end metrics (-trace 0) or the
// per-layer metrics of a separately traced pass (-trace 1) named in
// BENCHMARK.json. README.md explains the workloads and the metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: "+workloadNames()+", or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := fs.Float64("seconds", 0, "length of the measured phase (0 = the scale's default)")
	trace := fs.String("trace", "both", "0 = end-to-end metrics, 1 = per-layer metrics from the traced pass, both = one after the other")
	scaleName := fs.String("scale", "full", "full or smoke")
	outDir := fs.String("out", "bench/out", "directory for trace-<workload>.json and scratch files")
	repeat := fs.Int("repeat", 0, "run each workload this many times, on consecutive seeds, and print each end-to-end metric's median, quartiles and spread")
	check := fs.Bool("check", false, "with -repeat: fail if a spread exceeds the metric's bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := scaleByName(*scaleName)
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = sc.seconds
	}
	var defs []*workloadDef
	if *workload == "all" {
		for i := range workloads {
			defs = append(defs, &workloads[i])
		}
	} else {
		d, err := workloadByName(*workload)
		if err != nil {
			return err
		}
		defs = append(defs, d)
	}
	// The load model fixes the core count; see workloads.go.
	runtime.GOMAXPROCS(benchProcs)

	if *repeat > 0 {
		return repeatRuns(defs, sc, *seed, *seconds, *outDir, *repeat, *check)
	}
	incorrect := 0
	for _, d := range defs {
		cfg := runConfig{def: d, sc: sc, seed: *seed, seconds: *seconds, outDir: *outDir}
		if *trace == "0" || *trace == "both" {
			rep, err := endToEndPass(cfg)
			if err != nil {
				return err
			}
			if err := rep.print(os.Stdout, endToEnd); err != nil {
				return err
			}
			if !rep.line.Correct {
				incorrect++
			}
		}
		if *trace == "1" || *trace == "both" {
			rep, err := tracedPass(cfg)
			if err != nil {
				return err
			}
			if err := rep.print(os.Stdout, perLayer); err != nil {
				return err
			}
			if !rep.line.Correct {
				incorrect++
			}
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d pass(es) served a wrong or failed answer", incorrect)
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, d := range workloads {
		names[i] = d.name
	}
	return strings.Join(names, ", ")
}
