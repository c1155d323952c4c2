package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"tunio/internal/mat"
	"tunio/internal/params"
)

func TestStopperConfigDefaults(t *testing.T) {
	s, err := NewEarlyStopper(StopperConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Horizon != 50 || s.cfg.RewardDelay != 5 || s.cfg.IterationCost != 0.012 {
		t.Fatalf("defaults not applied: %+v", s.cfg)
	}
}

func TestStopperNeverStopsOnFirstObservation(t *testing.T) {
	s, _ := NewEarlyStopper(StopperConfig{Seed: 2})
	if s.Stop(0, 100) {
		t.Fatal("stopped on first observation")
	}
}

func TestStopperResetClearsEpisodeState(t *testing.T) {
	s, _ := NewEarlyStopper(StopperConfig{Seed: 3})
	s.Stop(0, 100)
	s.Stop(1, 120)
	s.Reset()
	if len(s.history) != 0 || s.delayed.Pending() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestLogCurveShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := LogCurve{Base: 100, Amp: 1000, Growth: 0.5, Noise: 0}
	v0 := c.At(0, rng)
	v10 := c.At(10, rng)
	v50 := c.At(50, rng)
	if math.Abs(v0-100) > 1e-9 {
		t.Fatalf("At(0) = %v, want base", v0)
	}
	if v10 <= v0 || v50 <= v10 {
		t.Fatal("curve not increasing")
	}
	// log shape: early gains dominate
	if (v10 - v0) < (v50-v10)/2 {
		t.Fatal("curve does not look logarithmic")
	}
	if math.Abs(v50-1100) > 1 {
		t.Fatalf("At(50) = %v, want base+amp", v50)
	}
}

func TestLogCurvePlateau(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := LogCurve{Base: 100, Amp: 1000, Growth: 0.5, Plateau: 5, PlateauAt: 10}
	inPlateau := c.At(12, rng)
	atStart := c.At(10, rng)
	if math.Abs(inPlateau-atStart) > 1e-9 {
		t.Fatalf("plateau not flat: %v vs %v", inPlateau, atStart)
	}
	after := c.At(20, rng)
	if after <= atStart {
		t.Fatal("curve did not resume after plateau")
	}
}

func TestRandomLogCurveInRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		c := RandomLogCurveHorizon(rng, 50)
		if c.Base <= 0 || c.Amp <= 0 || c.Growth <= 0 || c.Noise <= 0 {
			t.Fatalf("bad curve %+v", c)
		}
	}
}

func TestStagnated(t *testing.T) {
	if stagnated([]float64{1, 2, 3}) {
		t.Fatal("too short to stagnate")
	}
	if !stagnated([]float64{1, 2, 3, 3, 3, 3, 3, 3.05}) {
		t.Fatal("flat history should stagnate")
	}
	if stagnated([]float64{1, 1.2, 1.5, 1.9, 2.4, 3.0}) {
		t.Fatal("growing history should not stagnate")
	}
}

func trainedStopper(t *testing.T) *EarlyStopper {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	s, err := TrainEarlyStopper(StopperConfig{Seed: 77}, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	s.SetLearning(false) // deterministic evaluation
	s.SetEpsilon(0)
	return s
}

func TestTrainedStopperStopsOnDeadCurve(t *testing.T) {
	// Perf that never improves: the trained agent must stop well before
	// the horizon (wasting the full 50-iteration budget means it learned
	// nothing).
	s := trainedStopper(t)
	s.Reset()
	stopAt := -1
	for i := 0; i <= 50; i++ {
		if s.Stop(i, 1000) {
			stopAt = i
			break
		}
	}
	if stopAt == -1 || stopAt > 30 {
		t.Fatalf("trained stopper stopped at %d on a flat curve, want early", stopAt)
	}
}

func TestTrainedStopperRidesGrowthCurve(t *testing.T) {
	// Strong steady growth: the agent should not stop in the first few
	// iterations (that would forfeit most of the gain).
	s := trainedStopper(t)
	s.Reset()
	rng := rand.New(rand.NewSource(9))
	c := LogCurve{Base: 500, Amp: 4000, Growth: 1.0, Noise: 0.01}
	best := 0.0
	stopAt := 51
	for i := 0; i <= 50; i++ {
		if v := c.At(i, rng); v > best {
			best = v
		}
		if s.Stop(i, best) {
			stopAt = i
			break
		}
	}
	if stopAt < 5 {
		t.Fatalf("stopped at %d on a strong growth curve, forfeiting gains", stopAt)
	}
}

func TestTrainedStopperCapturesMostOfCurve(t *testing.T) {
	// Across random curves, stopping must capture >= 70% of the final
	// achievable gain on average (the paper reports ~90% of best RoTI).
	s := trainedStopper(t)
	rng := rand.New(rand.NewSource(10))
	captured, available := 0.0, 0.0
	for trial := 0; trial < 30; trial++ {
		s.Reset()
		c := RandomLogCurveHorizon(rng, 50)
		best := 0.0
		var atStop float64
		stopped := false
		for i := 0; i <= 50; i++ {
			if v := c.At(i, rng); v > best {
				best = v
			}
			if !stopped && s.Stop(i, best) {
				atStop = best
				stopped = true
			}
		}
		if !stopped {
			atStop = best
		}
		captured += atStop - c.Base
		available += best - c.Base
	}
	if captured < 0.7*available {
		t.Fatalf("trained stopper captured %.0f%% of available gain, want >= 70%%",
			100*captured/available)
	}
}

func TestStopperSerializationRoundTrip(t *testing.T) {
	s := trainedStopper(t)
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var restored EarlyStopper
	if err := json.Unmarshal(blob, &restored); err != nil {
		t.Fatal(err)
	}
	restored.SetLearning(false)
	restored.SetEpsilon(0)
	// Same decision trajectory on a fixed curve.
	s.Reset()
	for i := 0; i <= 20; i++ {
		perf := 100 + 10*float64(i)
		a := s.Stop(i, perf)
		b := restored.Stop(i, perf)
		if a != b {
			t.Fatalf("restored stopper diverged at %d", i)
		}
	}
}

func TestPickerValidation(t *testing.T) {
	if _, err := NewSmartPicker(PickerConfig{NumParams: 0}); err == nil {
		t.Fatal("want error")
	}
}

func TestPickerMaskFor(t *testing.T) {
	p, err := NewSmartPicker(PickerConfig{NumParams: 5, Seed: 1, MinSubset: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := countTrue(p.maskFor(0)); got != 2 {
		t.Fatalf("min subset not enforced: %d", got)
	}
	if got := countTrue(p.maskFor(99)); got != 5 {
		t.Fatalf("over-large subset not clamped: %d", got)
	}
	if err := p.SetImpact([]float64{0.1, 0.5, 0.2, 0.1, 0.1}); err != nil {
		t.Fatal(err)
	}
	mask := p.maskFor(2)
	if !mask[1] || !mask[2] {
		t.Fatalf("top-2 mask = %v, want params 1 and 2", mask)
	}
}

func TestPickerSetImpactValidation(t *testing.T) {
	p, _ := NewSmartPicker(PickerConfig{NumParams: 3, Seed: 1})
	if err := p.SetImpact([]float64{1}); err == nil {
		t.Fatal("want error")
	}
}

func TestPickerNextSubsetShape(t *testing.T) {
	p, _ := NewSmartPicker(PickerConfig{NumParams: 12, Seed: 2})
	mask := p.NextSubset(100, make([]bool, 12))
	if len(mask) != 12 || countTrue(mask) < 1 {
		t.Fatalf("mask = %v", mask)
	}
	// wrong-width input falls back to all-active
	fallback := p.NextSubset(100, make([]bool, 3))
	for _, m := range fallback {
		if !m {
			t.Fatal("fallback should activate everything")
		}
	}
}

// syntheticSweep builds sweep data where parameter 0 dominates perf,
// parameter 1 matters somewhat, and the rest are noise.
func syntheticSweep(space []params.Parameter, rng *rand.Rand, n int) *SweepResult {
	s := &SweepResult{Space: space}
	for i := 0; i < n; i++ {
		genome := make([]int, len(space))
		for gi := range genome {
			genome[gi] = rng.Intn(len(space[gi].Values))
		}
		a, _ := params.FromGenome(space, genome)
		f := a.Features()
		perf := 500 + 4000*f[0] + 800*f[1] + 50*rng.NormFloat64()
		s.Features = append(s.Features, f)
		s.Perfs = append(s.Perfs, perf)
	}
	return s
}

// TrainSmartPicker trains a picker straight from a sweep, the way
// train.Train does from its stage artifacts: PCA impact scores, a fitted
// surrogate and the sweep's maximum perf into TrainSmartPickerFrom.
func TrainSmartPicker(cfg PickerConfig, sweep *SweepResult, maxEpochs int, rng *rand.Rand) (*SmartPicker, error) {
	scores, err := sweep.ImpactScores()
	if err != nil {
		return nil, err
	}
	return TrainSmartPickerFrom(cfg, scores, FitSurrogate(sweep), mat.MaxVal(sweep.Perfs), maxEpochs, rng)
}

func TestSweepImpactScoresFindDriver(t *testing.T) {
	space := params.Space()
	rng := rand.New(rand.NewSource(11))
	sweep := syntheticSweep(space, rng, 600)
	scores, err := sweep.ImpactScores()
	if err != nil {
		t.Fatal(err)
	}
	rank := make([]int, 0)
	for i := range scores {
		rank = append(rank, i)
	}
	// param 0 must be the top-ranked impact
	best := 0
	for i := range scores {
		if scores[i] > scores[best] {
			best = i
		}
	}
	if best != 0 {
		t.Fatalf("top impact = param %d (scores %v), want 0", best, scores)
	}
}

func TestTrainSmartPickerLearnsSubsets(t *testing.T) {
	space := params.Space()
	rng := rand.New(rand.NewSource(12))
	sweep := syntheticSweep(space, rng, 500)
	p, err := TrainSmartPicker(PickerConfig{Seed: 12}, sweep, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	p.SetLearning(false)
	p.SetEpsilon(0)
	// Trained picker should choose subsets that include the dominant
	// parameter and are smaller than the full space.
	mask := make([]bool, len(space))
	sizes := 0
	includes0 := 0
	const rounds = 10
	perf := 500.0
	for i := 0; i < rounds; i++ {
		mask = p.NextSubset(perf, mask)
		sizes += countTrue(mask)
		if mask[0] {
			includes0++
		}
		perf += 200
	}
	if includes0 < rounds {
		t.Fatalf("dominant parameter excluded in %d of %d rounds", rounds-includes0, rounds)
	}
	if sizes >= rounds*len(space) {
		t.Fatal("picker never chose a proper subset")
	}
}

func TestPickerSerializationRoundTrip(t *testing.T) {
	space := params.Space()
	rng := rand.New(rand.NewSource(13))
	sweep := syntheticSweep(space, rng, 300)
	p, err := TrainSmartPicker(PickerConfig{Seed: 13}, sweep, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var restored SmartPicker
	if err := json.Unmarshal(blob, &restored); err != nil {
		t.Fatal(err)
	}
	a, b := p.Impact(), restored.Impact()
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("impact scores not restored")
		}
	}
	ra, rb := p.Ranking(), restored.Ranking()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("ranking not restored")
		}
	}
}

func TestFitSurrogate(t *testing.T) {
	space := params.Space()
	rng := rand.New(rand.NewSource(14))
	sweep := syntheticSweep(space, rng, 800)
	sur := FitSurrogate(sweep)
	// The surrogate must prefer the max value of the dominant param 0.
	if bv := sur.bestValue(0); bv != len(space[0].Values)-1 {
		t.Fatalf("surrogate best value for param 0 = %d, want max index", bv)
	}
	def := make([]int, len(space))
	best := make([]int, len(space))
	for i := range best {
		best[i] = sur.bestValue(i)
	}
	if sur.perfOf(best) <= sur.perfOf(def) {
		t.Fatal("surrogate optimum not above default")
	}
}

func TestValueIndexFromFeature(t *testing.T) {
	if valueIndexFromFeature(0, 8) != 0 || valueIndexFromFeature(1, 8) != 7 {
		t.Fatal("endpoints wrong")
	}
	if valueIndexFromFeature(0.5, 2) != 1 {
		t.Fatal("rounding wrong")
	}
	if valueIndexFromFeature(0.9, 1) != 0 {
		t.Fatal("single-value param should be 0")
	}
}

func TestNormalizeSum(t *testing.T) {
	v := []float64{2, 6}
	normalizeSum(v)
	if v[0] != 0.25 || v[1] != 0.75 {
		t.Fatalf("normalize = %v", v)
	}
	z := []float64{0, 0}
	normalizeSum(z)
	if z[0] != 0.5 {
		t.Fatal("zero-sum should uniformize")
	}
}
