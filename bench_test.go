package tunio

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one benchmark per exhibit; see DESIGN.md's experiment index)
// and adds the ablation benches for the design choices DESIGN.md calls
// out, plus micro-benchmarks of the substrate hot paths.
//
// Figure benchmarks report their headline numbers through b.ReportMetric:
// e.g. BenchmarkFig10EarlyStopping reports TunIO's share of the best
// possible RoTI. Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tunio/internal/cinterp"
	"tunio/internal/cluster"
	"tunio/internal/core"
	"tunio/internal/csrc"
	"tunio/internal/experiments"
	"tunio/internal/ga"
	"tunio/internal/hdf5"
	"tunio/internal/ioreq"
	"tunio/internal/lustre"
	"tunio/internal/nn"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/tuner"
	"tunio/internal/workload"
)

var benchCfg = experiments.Config{Scale: experiments.Smoke, Seed: 7}

// --- paper tables and figures ---

func BenchmarkFig01PermutationTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig01(benchCfg)
		b.ReportMetric(float64(r.EvalSpace), "eval-space-permutations")
	}
}

func BenchmarkFig02TuningCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig02(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Curves["hacc"].Speedup(), "hacc-speedup-x")
	}
}

func BenchmarkFig05Marking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig05(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(len(r.MarkedLines))/float64(r.TotalLines), "lines-kept-%")
	}
}

func BenchmarkFig08IODiscoveryRoTI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig08(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Kernel.PeakRoTI/r.FullApp.PeakRoTI, "kernel-roti-gain-x")
		b.ReportMetric(r.Reduced.PeakRoTI/r.FullApp.PeakRoTI, "loopred-roti-gain-x")
	}
}

func BenchmarkFig08cKernelSimilarity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig08c(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BytesErrKernel, "kernel-bytes-err-%")
		b.ReportMetric(r.OpsErrReduced, "reduced-ops-err-%")
	}
}

func BenchmarkFig09ImpactFirst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig09(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ImprovementPct, "iteration-improvement-%")
	}
}

func BenchmarkFig10EarlyStopping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Policy("TunIO RL stopping").PctOfBest, "tunio-roti-share-%")
		b.ReportMetric(r.SpeedupAtTunIOStop, "speedup-at-stop-x")
	}
}

func BenchmarkFig11EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TimeReductionPct, "time-reduction-%")
		b.ReportMetric(r.IterationReductionPct, "iteration-reduction-%")
		b.ReportMetric(r.RoTIGain, "roti-gain-MBps-per-min")
	}
}

func BenchmarkFig12Lifecycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(benchCfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ViabilityTunIO, "viability-executions")
		b.ReportMetric(r.ViabilityImprovementPct, "viability-improvement-%")
	}
}

// --- ablations (design choices from DESIGN.md §5) ---

// BenchmarkAblationSelection compares the paper's tournament(3-keep-2)
// selection against plain roulette on a FLASH tuning run.
func BenchmarkAblationSelection(b *testing.B) {
	for _, sel := range []ga.Selection{ga.TournamentKeep2, ga.Roulette} {
		b.Run(string(sel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := cluster.CoriHaswell(2, 16)
				w := workload.NewFLASH(c.Procs())
				w.BlocksPerRank = 16
				w.Unknowns = 4
				res, err := tuner.RunReplay(context.Background(), tuner.Config{
					Space: params.Space(), PopSize: 8, MaxIterations: 12,
					Seed: 9, Selection: sel,
				}, tuner.KernelSource{Workload: w}, c, 9, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Curve.Speedup(), "speedup-x")
			}
		})
	}
}

// BenchmarkAblationNoise sweeps the platform noise amplitude the paper's
// 3-run averaging mitigates.
func BenchmarkAblationNoise(b *testing.B) {
	for _, noise := range []float64{0, 0.04, 0.10} {
		b.Run(map[float64]string{0: "none", 0.04: "cori", 0.10: "high"}[noise], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := cluster.CoriHaswell(2, 16)
				c.Noise = noise
				w := workload.NewHACC(c.Procs())
				w.ParticlesPerRank = 128 << 10
				res, err := tuner.RunReplay(context.Background(), tuner.Config{
					Space: params.Space(), PopSize: 8, MaxIterations: 10, Seed: 13,
				}, tuner.KernelSource{Workload: w}, c, 13, 3)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Curve.Speedup(), "speedup-x")
			}
		})
	}
}

// BenchmarkAblationOfflineTraining compares the offline-trained early
// stopper against an untrained one on synthetic curves (captured share of
// available gain).
func BenchmarkAblationOfflineTraining(b *testing.B) {
	evalStopper := func(b *testing.B, s *core.EarlyStopper) float64 {
		b.Helper()
		rng := rand.New(rand.NewSource(21))
		s.SetLearning(false)
		s.SetEpsilon(0)
		captured, available := 0.0, 0.0
		for trial := 0; trial < 20; trial++ {
			s.Reset()
			curve := core.RandomLogCurveHorizon(rng, 35)
			best, atStop := 0.0, 0.0
			stopped := false
			for i := 0; i <= 35; i++ {
				if v := curve.At(i, rng); v > best {
					best = v
				}
				if !stopped && s.Stop(i, best) {
					atStop, stopped = best, true
				}
			}
			if !stopped {
				atStop = best
			}
			captured += atStop - curve.Base
			available += best - curve.Base
		}
		return 100 * captured / available
	}
	b.Run("offline-trained", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(31))
			s, err := core.TrainEarlyStopper(core.StopperConfig{Seed: 31, Horizon: 35}, 20, rng)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(evalStopper(b, s), "gain-captured-%")
		}
	})
	b.Run("untrained", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := core.NewEarlyStopper(core.StopperConfig{Seed: 31, Horizon: 35})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(evalStopper(b, s), "gain-captured-%")
		}
	})
}

// BenchmarkAblationRewardDelay compares the paper's 5-iteration reward
// delay against immediate rewards in stopper training.
func BenchmarkAblationRewardDelay(b *testing.B) {
	for _, delay := range []int{1, 5} {
		name := "delay-5"
		if delay == 1 {
			name = "delay-1"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(41))
				s, err := core.TrainEarlyStopper(core.StopperConfig{Seed: 41, Horizon: 35, RewardDelay: delay}, 20, rng)
				if err != nil {
					b.Fatal(err)
				}
				s.SetLearning(false)
				s.SetEpsilon(0)
				// flat curve: how quickly does it cut losses?
				s.Reset()
				stopAt := 35
				for it := 0; it <= 35; it++ {
					if s.Stop(it, 1000) {
						stopAt = it
						break
					}
				}
				b.ReportMetric(float64(stopAt), "flat-curve-stop-iter")
			}
		})
	}
}

// --- substrate micro-benchmarks ---

func benchStack(b *testing.B) (*cluster.Sim, *lustre.Backend) {
	b.Helper()
	c := cluster.CoriHaswell(4, 32)
	c.Noise = 0
	sim, err := cluster.NewSim(c, 1)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := lustre.New(lustre.CoriScratch(), sim)
	if err != nil {
		b.Fatal(err)
	}
	return sim, &lustre.Backend{FS: fs, StripeCount: 16, StripeSize: 1 << 20}
}

func BenchmarkLustreWritePhase(b *testing.B) {
	_, be := benchStack(b)
	extents := make([]ioreq.Extent, 128)
	for r := range extents {
		extents[r] = ioreq.Extent{Offset: int64(r) * (8 << 20), Size: 8 << 20, Rank: r}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		be.WritePhase("bench", extents)
	}
}

func BenchmarkHDF5ChunkedWrite(b *testing.B) {
	c := cluster.CoriHaswell(4, 32)
	c.Noise = 0
	settings := params.DefaultAssignment(params.Space()).Settings()
	space, err := hdf5.NewSpace([]int64{128 * 8, 16, 16, 16}, 8)
	if err != nil {
		b.Fatal(err)
	}
	slabs := make([]hdf5.Slab, 128)
	for r := range slabs {
		slabs[r] = hdf5.Slab{Rank: r, Start: []int64{int64(r) * 8, 0, 0, 0}, Count: []int64{8, 16, 16, 16}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := workload.BuildStack(c, settings, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		f, err := st.Lib.CreateFile("bench.h5")
		if err != nil {
			b.Fatal(err)
		}
		ds, err := f.CreateDataset("d", space, []int64{8, 16, 16, 16})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ds.Write(slabs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadVPICRun(b *testing.B) {
	c := cluster.CoriHaswell(4, 32)
	settings := params.DefaultAssignment(params.Space()).Settings()
	w := workload.NewVPIC(c.Procs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Execute(w, c, settings, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNNForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := nn.NewNetwork(14, rng, nn.LayerSpec{Out: 24, Act: nn.Tanh},
		nn.LayerSpec{Out: 12, Act: nn.Tanh}, nn.LayerSpec{Out: 12, Act: nn.Linear})
	in := make([]float64, 14)
	for i := range in {
		in[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(in)
	}
}

func BenchmarkGAGeneration(b *testing.B) {
	space := params.Space()
	rng := rand.New(rand.NewSource(2))
	e, err := ga.New(ga.Config{
		GenomeLen: len(space),
		Arity:     func(g int) int { return len(space[g].Values) },
		PopSize:   16,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range e.Population() {
			e.SetFitness(j, float64(j%7))
		}
		if err := e.NextGeneration(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreterVPICKernel times one recording-sized job of the
// interpreter alone — a live stack and cinterp.Run, no recorder — at 32 and
// at 128 simulated ranks.
func BenchmarkInterpreterVPICKernel(b *testing.B) {
	settings := params.DefaultAssignment(params.Space()).Settings()
	for _, shape := range []struct{ nodes, ppn int }{{2, 16}, {4, 32}} {
		c := cluster.CoriHaswell(shape.nodes, shape.ppn)
		v := workload.NewVPIC(c.Procs())
		v.ParticlesPerRank = 64 << 10
		prog, err := csrc.Parse(v.CSource())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%dx%d", shape.nodes, shape.ppn), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := workload.BuildStack(c, settings, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cinterp.Run(prog, st.Lib); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDiscovery(b *testing.B) {
	src := workload.NewVPIC(128).CSource()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DiscoverIO(src, DiscoveryOptions{LoopReduction: 0.01, PathSwitch: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTuneEvaluationEngine times a full default-size Tune on one
// worker (recording, staged replay, memoization) per paper workload.
// scripts/benchcmp.sh compares it across revisions.
func BenchmarkTuneEvaluationEngine(b *testing.B) {
	for _, w := range []string{"vpic", "hacc", "flash", "bdcats", "macsio"} {
		b.Run(w+"/batch-memo", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Tune(TuneOptions{Workload: w, Seed: 1, Parallelism: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.CacheHits), "cache-hits")
			}
		})
	}
}

// BenchmarkTraceVsSourceKernel materializes the paper's §V-B comparison:
// evaluating a configuration through a trace-replay kernel vs through the
// source-derived kernel. Both are exercised on the same configuration; the
// reported metric is the simulated evaluation cost each incurs.
func BenchmarkTraceVsSourceKernel(b *testing.B) {
	c := cluster.CoriHaswell(2, 8)
	c.Noise = 0
	w := workload.NewVPIC(c.Procs())
	w.ParticlesPerRank = 32 << 10
	w.Steps = 1
	w.ComputeFlops = 2e9
	settings := params.DefaultAssignment(params.Space()).Settings()

	// record once (the trace approach needs a full application run first)
	st, err := workload.BuildStack(c, settings, 1)
	if err != nil {
		b.Fatal(err)
	}
	trace, err := replay.Record(w, st)
	if err != nil {
		b.Fatal(err)
	}

	kernel, err := DiscoverIO(w.CSource(), DiscoveryOptions{})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("trace-replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := workload.Execute(&replay.Player{T: trace, SkipCompute: true}, c, settings, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Runtime, "sim-seconds-per-eval")
		}
	})
	b.Run("source-kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := workload.BuildStack(c, settings, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cinterp.Run(kernel.File, st.Lib); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(st.Sim.Now(), "sim-seconds-per-eval")
		}
	})
}
