// flash-impactfirst reproduces the Figure 9 experiment in miniature: tune
// the FLASH-IO checkpoint with and without the Smart Configuration
// Generation component (both for the full budget, no early stopping) and
// compare how fast each reaches the same bandwidth.
//
//	go run ./examples/flash-impactfirst
package main

import (
	"context"
	"fmt"
	"log"

	"tunio"
	"tunio/internal/cluster"
	"tunio/internal/params"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

func main() {
	fmt.Println("== impact-first tuning on FLASH (Figure 9) ==")
	fmt.Println("training the subset-picker agent offline...")
	agent, err := tunio.Train(tunio.TrainConfig{
		Seed: 3, ExtraRandomRuns: 8, StopperEpochs: 20, PickerEpochs: 15,
	})
	if err != nil {
		log.Fatal(err)
	}

	c := cluster.CoriHaswell(4, 32)
	run := func(label string, withPicker bool) *tuner.Result {
		w := workload.NewFLASH(c.Procs())
		cfg := tuner.Config{
			Space:   params.Space(),
			PopSize: 8, MaxIterations: 20, Seed: 3,
		}
		if withPicker {
			a, err := agent.Clone()
			if err != nil {
				log.Fatal(err)
			}
			a.Picker.Reset()
			cfg.Picker = a.Picker
		}
		res, err := tuner.RunReplay(context.Background(), cfg, tuner.KernelSource{Workload: w}, c, 3, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s:\n", label)
		for i, p := range res.Curve {
			if i%2 == 0 || i == len(res.Curve)-1 {
				fmt.Printf("  iter %2d: %8.0f MB/s\n", p.Iteration, p.BestPerf)
			}
		}
		return res
	}

	with := run("impact-first (Smart Configuration Generation)", true)
	without := run("all 12 parameters every iteration (HSTuner)", false)

	target := with.Curve.FinalBest()
	if wb := without.Curve.FinalBest(); wb < target {
		target = wb
	}
	target *= 0.9
	iw := with.Curve.FirstReaching(target)
	iwo := without.Curve.FirstReaching(target)
	fmt.Printf("\ntarget %.0f MB/s reached at iteration %d (impact-first) vs %d (all params)\n", target, iw, iwo)
	if iw >= 0 && iwo > 0 {
		fmt.Printf("iteration improvement: %.0f%% (paper: 86%%)\n", 100*(1-float64(iw)/float64(iwo)))
	}
	fmt.Printf("impact-first changed %d of %d parameters: %v\n",
		len(with.Best.ChangedFromDefault()), len(params.Space()), with.Best.ChangedFromDefault())
}
