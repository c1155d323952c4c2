// Command tunebench regenerates the paper's tables and figures on the
// simulated stack: Figures 1, 2, 5, 8, 8c, 9, 10, 11 and 12, the
// kernel-slicing comparison (slice) and the online re-tuning figure
// (drift). Every published quantity is simulated; host speed is measured
// by bench/ (BENCHMARK.json) and by `go test -bench`, not here.
//
// Usage:
//
//	tunebench                 # run every experiment at smoke scale
//	tunebench -fig 10         # one figure
//	tunebench -scale paper    # evaluation-sized runs (slower)
//	tunebench -fig drift -json out.json   # one figure's result as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"tunio/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1, 2, 5, 8, 8c, 9, 10, 11, 12, slice, drift, all")
	scaleName := flag.String("scale", "smoke", "experiment scale: smoke or paper")
	seed := flag.Int64("seed", 7, "experiment seed")
	jsonPath := flag.String("json", "", "write the figure's result as JSON to this file (needs -fig naming one figure)")
	flag.Parse()
	if *jsonPath != "" && *fig == "all" {
		fmt.Fprintln(os.Stderr, "tunebench: -json writes one figure's result: name it with -fig")
		flag.Usage()
		os.Exit(2)
	}

	scale := experiments.Smoke
	switch *scaleName {
	case "smoke":
	case "paper":
		scale = experiments.Paper
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleName))
	}
	cfg := experiments.Config{Scale: scale, Seed: *seed}

	type job struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	var fig11Cache *experiments.Fig11Result
	jobs := []job{
		{"1", func() (fmt.Stringer, error) { return experiments.Fig01(cfg), nil }},
		{"2", func() (fmt.Stringer, error) { r, err := experiments.Fig02(cfg); return r, err }},
		{"5", func() (fmt.Stringer, error) { r, err := experiments.Fig05(cfg); return r, err }},
		{"8", func() (fmt.Stringer, error) { r, err := experiments.Fig08(cfg); return r, err }},
		{"8c", func() (fmt.Stringer, error) { r, err := experiments.Fig08c(cfg); return r, err }},
		{"9", func() (fmt.Stringer, error) { r, err := experiments.Fig09(cfg); return r, err }},
		{"10", func() (fmt.Stringer, error) { r, err := experiments.Fig10(cfg); return r, err }},
		{"11", func() (fmt.Stringer, error) {
			r, err := experiments.Fig11(cfg)
			fig11Cache = r
			return r, err
		}},
		{"12", func() (fmt.Stringer, error) { r, err := experiments.Fig12(cfg, fig11Cache); return r, err }},
		{"slice", func() (fmt.Stringer, error) { r, err := experiments.SliceBench(cfg); return r, err }},
		{"drift", func() (fmt.Stringer, error) { r, err := experiments.DriftBench(cfg); return r, err }},
	}

	ran := 0
	var last fmt.Stringer
	for _, j := range jobs {
		if *fig != "all" && *fig != j.name {
			continue
		}
		ran++
		start := time.Now()
		res, err := j.run()
		if err != nil {
			fatal(fmt.Errorf("figure %s: %w", j.name, err))
		}
		last = res
		fmt.Println(res)
		fmt.Printf("[figure %s regenerated in %.1fs wall time]\n\n", j.name, time.Since(start).Seconds())
	}
	if ran == 0 {
		fatal(fmt.Errorf("unknown figure %q", *fig))
	}
	if *jsonPath != "" && last != nil {
		data, err := json.MarshalIndent(last, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tunebench:", err)
	os.Exit(1)
}
