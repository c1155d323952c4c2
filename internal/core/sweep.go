package core

import (
	"math/rand"

	"tunio/internal/mat"
	"tunio/internal/params"
	"tunio/internal/pca"
	"tunio/internal/workload"
)

// SweepResult holds the observations of an offline parameter sweep: one
// row of normalized parameter features per run, aligned with the measured
// perf values (§III-C: "a simple parameter sweep on some representative
// I/O kernels, including VPIC, FLASH, and HACC").
type SweepResult struct {
	Space    []params.Parameter
	Features [][]float64
	Perfs    []float64
}

// Observations returns the feature matrix.
func (s *SweepResult) Observations() (*mat.Matrix, error) {
	return mat.FromRows(s.Features)
}

// ImpactScores runs the paper's PCA analysis on the sweep, returning one
// impact score per parameter (summing to 1).
func (s *SweepResult) ImpactScores() ([]float64, error) {
	m, err := s.Observations()
	if err != nil {
		return nil, err
	}
	return pca.ImpactScores(m, s.Perfs)
}

// SweepRun is one scheduled sweep evaluation: which kernel to run, the
// configuration to run it under, and the deterministic per-run seed. The
// run list is a pure function of (space, seed, extraRandom, kernel count),
// so any executor — the parallel replay sweep in internal/train, the
// serial direct loop its tests compare it with — that scores the same plan
// produces the same observations in the same order.
type SweepRun struct {
	Kernel     int
	Assignment *params.Assignment
	Seed       int64
}

// SweepPlan enumerates the offline sweep's runs: per kernel, every value
// of every parameter with all others at defaults (one-at-a-time), then
// extraRandom random assignments for cross-parameter signal. Seeds count
// up from seed+1 in plan order, and the random genomes come from one
// rand.New(seed) stream shared across kernels.
func SweepPlan(numKernels int, space []params.Parameter, seed int64, extraRandom int) ([]SweepRun, error) {
	rng := rand.New(rand.NewSource(seed))
	runSeed := seed
	var runs []SweepRun
	for k := 0; k < numKernels; k++ {
		// one-at-a-time sweep
		for pi, p := range space {
			for vi := range p.Values {
				a := params.DefaultAssignment(space)
				if err := a.SetIndex(space[pi].Name, vi); err != nil {
					return nil, err
				}
				runSeed++
				runs = append(runs, SweepRun{Kernel: k, Assignment: a, Seed: runSeed})
			}
		}
		// random combinations
		for r := 0; r < extraRandom; r++ {
			genome := make([]int, len(space))
			for gi := range genome {
				genome[gi] = rng.Intn(len(space[gi].Values))
			}
			a, err := params.FromGenome(space, genome)
			if err != nil {
				return nil, err
			}
			runSeed++
			runs = append(runs, SweepRun{Kernel: k, Assignment: a, Seed: runSeed})
		}
	}
	return runs, nil
}

// DefaultSweepKernels returns small-scale VPIC, FLASH, and HACC instances
// (the paper's representative kernels) for offline training sweeps.
func DefaultSweepKernels(procs int) []workload.Workload {
	v := workload.NewVPIC(procs)
	v.ParticlesPerRank = 128 << 10
	fl := workload.NewFLASH(procs)
	fl.BlocksPerRank = 16
	fl.Unknowns = 4
	h := workload.NewHACC(procs)
	h.ParticlesPerRank = 128 << 10
	return []workload.Workload{v, fl, h}
}

// Surrogate is an additive performance model fit from sweep data, used to
// generate cheap synthetic tuning episodes for offline Q training. It is
// JSON-serializable so the training pipeline can persist it as a stage
// artifact and retrain the picker without re-running the sweep.
type Surrogate struct {
	Space   []params.Parameter `json:"space"`
	Base    float64            `json:"base"`
	Effects [][]float64        `json:"effects"` // [param][valueIdx] additive effect
	Max     float64            `json:"max"`
}

// FitSurrogate estimates per-value effects as the mean perf of runs using
// that value minus the grand mean.
func FitSurrogate(s *SweepResult) *Surrogate {
	grand := mat.Mean(s.Perfs)
	sur := &Surrogate{Space: s.Space, Base: grand}
	sur.Effects = make([][]float64, len(s.Space))
	for pi, p := range s.Space {
		sur.Effects[pi] = make([]float64, len(p.Values))
		counts := make([]int, len(p.Values))
		sums := make([]float64, len(p.Values))
		for ri, feat := range s.Features {
			vi := valueIndexFromFeature(feat[pi], len(p.Values))
			sums[vi] += s.Perfs[ri]
			counts[vi]++
		}
		for vi := range p.Values {
			if counts[vi] > 0 {
				sur.Effects[pi][vi] = sums[vi]/float64(counts[vi]) - grand
			}
		}
	}
	best := sur.Base
	for pi := range sur.Effects {
		bestEff := 0.0
		for _, e := range sur.Effects[pi] {
			if e > bestEff {
				bestEff = e
			}
		}
		best += bestEff
	}
	sur.Max = best
	return sur
}

// valueIndexFromFeature inverts the Features normalization.
func valueIndexFromFeature(f float64, n int) int {
	if n <= 1 {
		return 0
	}
	i := int(f*float64(n-1) + 0.5)
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// perfOf evaluates the surrogate for a genome.
func (s *Surrogate) perfOf(genome []int) float64 {
	v := s.Base
	for pi, g := range genome {
		v += s.Effects[pi][g]
	}
	if v < 1 {
		v = 1
	}
	return v
}

// bestValue returns the best value index for a parameter.
func (s *Surrogate) bestValue(pi int) int {
	best := 0
	for vi := range s.Effects[pi] {
		if s.Effects[pi][vi] > s.Effects[pi][best] {
			best = vi
		}
	}
	return best
}

// TrainSmartPickerFrom builds and offline-trains a SmartPicker from sweep
// products — PCA impact scores to seed it, an additive surrogate fitted
// from the sweep, and the perf scale (the sweep's maximum observed perf):
// the bandit + Q agent trains on synthetic tuning episodes over the
// surrogate until the average reward stagnates (§III-C), and the returned
// picker keeps learning online. It takes the products, not the sweep, so
// the training pipeline can resume from stage artifacts.
func TrainSmartPickerFrom(cfg PickerConfig, scores []float64, sur *Surrogate, perfScale float64, maxEpochs int, rng *rand.Rand) (*SmartPicker, error) {
	cfg.NumParams = len(sur.Space)
	p, err := NewSmartPicker(cfg)
	if err != nil {
		return nil, err
	}
	if err := p.SetImpact(scores); err != nil {
		return nil, err
	}
	if cfg.PerfScale == 0 {
		p.scale = perfScale
	}

	if maxEpochs <= 0 {
		maxEpochs = 40
	}
	const episodesPerEpoch = 20
	var avgHistory []float64
	for epoch := 0; epoch < maxEpochs; epoch++ {
		total := 0.0
		for ep := 0; ep < episodesPerEpoch; ep++ {
			total += p.trainEpisode(sur, rng)
		}
		avgHistory = append(avgHistory, total/episodesPerEpoch)
		if stagnated(avgHistory) {
			break
		}
	}
	p.Reset()
	p.SetEpsilon(0.1)
	// Re-seed impact: online adaptation during training episodes drifts
	// scores; deployment starts from the PCA analysis.
	if err := p.SetImpact(scores); err != nil {
		return nil, err
	}
	return p, nil
}

// trainEpisode simulates one tuning episode over the surrogate: per
// iteration the picker chooses a subset; the episode greedily improves one
// active parameter per iteration (a GA generation's net effect), and the
// agent is rewarded with the paper's subset-size-normalized perf.
func (p *SmartPicker) trainEpisode(sur *Surrogate, rng *rand.Rand) float64 {
	p.Reset()
	genome := make([]int, len(sur.Space))
	for pi, par := range sur.Space {
		genome[pi] = par.Default
	}
	mask := p.maskFor(p.cfg.NumParams)
	perf := sur.perfOf(genome)
	ret := 0.0
	const horizon = 15
	for iter := 0; iter < horizon; iter++ {
		mask = p.NextSubset(perf, mask)
		// Improve the active parameter with the largest remaining gain
		// (what a GA generation restricted to this subset tends to find).
		bestGain, bestParam := 0.0, -1
		for pi, active := range mask {
			if !active {
				continue
			}
			bv := sur.bestValue(pi)
			gain := sur.Effects[pi][bv] - sur.Effects[pi][genome[pi]]
			if gain > bestGain {
				bestGain, bestParam = gain, pi
			}
		}
		if bestParam >= 0 && rng.Float64() < 0.8 {
			genome[bestParam] = sur.bestValue(bestParam)
		}
		perf = sur.perfOf(genome) * (1 + rng.NormFloat64()*0.02)
		ret += p.reward(perf, countTrue(mask))
	}
	return ret / horizon
}
