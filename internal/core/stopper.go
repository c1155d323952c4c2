// Package core implements TunIO's three components (§III): the RL-based
// Early Stopping agent, the RL-based Smart Configuration Generation agent
// (impact-first tuning), and the facade over the Application I/O Discovery
// pipeline — together with their offline training procedures.
package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"tunio/internal/rl"
)

// stopperStateDim is the width of the early stopper's state observation.
const stopperStateDim = 5

// stopper actions.
const (
	actionContinue = 0
	actionStop     = 1
)

// StopperConfig configures the Early Stopping agent.
type StopperConfig struct {
	// Horizon is the iteration scale used to normalize the iteration
	// feature (the tuning budget order of magnitude). Default 50.
	Horizon int
	// PerfScale normalizes perf features; the paper normalizes by
	// BW_single x num_nodes. 0 = adapt to the maximum perf seen.
	PerfScale float64
	// IterationCost is the per-iteration tuning cost expressed as a
	// fraction of PerfScale: continuing one more iteration must buy at
	// least this much normalized gain to be worth it. Default 0.008.
	IterationCost float64
	// RewardDelay is the paper's reward delay in iterations. Default 5.
	RewardDelay int
	// ExpectedRuns, when > 0, tells the stopper how many production
	// executions the user expects (§VI future work): the more runs the
	// tune will amortize over, the longer it is worth tuning. The default
	// decision threshold corresponds to ~1000 expected runs; values above
	// bias toward continuing, values below toward stopping sooner.
	ExpectedRuns float64
	// Seed drives agent initialization and exploration.
	Seed int64
}

// baselineExpectedRuns is the production-run count the default stopping
// threshold is calibrated for.
const baselineExpectedRuns = 1000

// stopBias converts ExpectedRuns into a shift on the stop/continue Q
// comparison: positive bias makes stopping harder.
func (c StopperConfig) stopBias() float64 {
	if c.ExpectedRuns <= 0 {
		return 0
	}
	return 0.08 * math.Log10(c.ExpectedRuns/baselineExpectedRuns)
}

func (c *StopperConfig) fillDefaults() {
	if c.Horizon == 0 {
		c.Horizon = 50
	}
	if c.IterationCost == 0 {
		c.IterationCost = 0.012
	}
	if c.RewardDelay == 0 {
		c.RewardDelay = 5
	}
}

// EarlyStopper is TunIO's RL early-stopping component. It implements
// tuner.Stopper: fed (iteration, best perf) once per tuning iteration, it
// decides stop or continue, learning online from the trends it observes on
// top of its offline training (§III-D).
type EarlyStopper struct {
	cfg   StopperConfig
	agent *rl.QAgent
	rng   *rand.Rand

	// per-episode state
	history []float64 // best perf per observed iteration
	delayed *rl.DelayedReward
	scale   float64
	learn   bool
}

// NewEarlyStopper builds an untrained agent (exploring heavily). Most
// callers should use TrainEarlyStopper to get an offline-trained one.
func NewEarlyStopper(cfg StopperConfig) (*EarlyStopper, error) {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	agent, err := rl.NewQAgent(rl.QConfig{
		StateDim: stopperStateDim,
		Actions:  2,
		Hidden:   []int{24, 24},
		Gamma:    0.97,
		LR:       2e-3,
		Epsilon:  1.0, EpsilonMin: 0.02, EpsilonDecay: 0.999,
		BatchSize: 32, TargetSync: 100,
	}, rng)
	if err != nil {
		return nil, err
	}
	return &EarlyStopper{
		cfg:     cfg,
		agent:   agent,
		rng:     rng,
		delayed: rl.NewDelayedReward(cfg.RewardDelay),
		scale:   cfg.PerfScale,
		learn:   true,
	}, nil
}

// SetLearning toggles online learning (deployment may freeze the agent).
func (s *EarlyStopper) SetLearning(on bool) { s.learn = on }

// Epsilon exposes the exploration rate (for tests and ablations).
func (s *EarlyStopper) Epsilon() float64 { return s.agent.Epsilon() }

// SetEpsilon overrides exploration (deployed agents run nearly greedy).
func (s *EarlyStopper) SetEpsilon(e float64) { s.agent.SetEpsilon(e) }

// state builds the observation at the current history point.
func (s *EarlyStopper) state() []float64 {
	n := len(s.history)
	perf := s.history[n-1]
	if s.cfg.PerfScale == 0 && perf > s.scale {
		s.scale = perf
	}
	scale := s.scale
	if scale <= 0 {
		scale = 1
	}
	at := func(back int) float64 {
		i := n - 1 - back
		if i < 0 {
			i = 0
		}
		return s.history[i]
	}
	iterFrac := float64(n-1) / float64(s.cfg.Horizon)
	gain1 := (perf - at(1)) / scale
	gain5 := (perf - at(5)) / scale
	roti := 0.0
	if n > 1 {
		roti = (perf - s.history[0]) / scale / float64(n-1)
	}
	return []float64{iterFrac, perf / scale, gain1, gain5, roti * 10}
}

// Stop implements tuner.Stopper.
func (s *EarlyStopper) Stop(iteration int, bestPerf float64) bool {
	s.history = append(s.history, bestPerf)
	if len(s.history) < 2 {
		return false // never stop on the very first observation
	}
	st := s.state()

	// Deliver delayed rewards for earlier continue decisions: the reward
	// of continuing is the normalized gain realized since, minus the cost
	// of the iterations spent (the paper's 5-iteration reward delay).
	reward := 0.0
	if s.learn {
		scale := s.scale
		if scale <= 0 {
			scale = 1
		}
		back := s.cfg.RewardDelay
		if back >= len(s.history) {
			back = len(s.history) - 1
		}
		gain := (bestPerf - s.history[len(s.history)-1-back]) / scale
		reward = gain - float64(back)*s.cfg.IterationCost
		for _, tr := range s.delayed.Tick(reward, st, false) {
			s.agent.Observe(tr)
			s.agent.TrainStep(s.rng)
		}
	}

	action := s.selectAction(st)
	if s.learn {
		if action == actionStop {
			// Terminal: stopping forfeits future gains but saves cost;
			// neutral reward anchors the stop/continue trade-off.
			s.agent.Observe(rl.Transition{State: st, Action: actionStop, Reward: 0, Next: st, Done: true})
			s.agent.TrainStep(s.rng)
			// Flush pending continue decisions with the latest trend
			// reward: they realized (part of) the gains seen so far.
			for _, tr := range s.delayed.Tick(reward, st, true) {
				s.agent.Observe(tr)
				s.agent.TrainStep(s.rng)
			}
		} else {
			s.delayed.Record(st, actionContinue)
		}
	}
	return action == actionStop
}

// selectAction applies the agent's ε-greedy policy with the
// expected-runs bias on the stop/continue comparison.
func (s *EarlyStopper) selectAction(st []float64) int {
	bias := s.cfg.stopBias()
	if bias == 0 {
		return s.agent.SelectAction(st, s.rng)
	}
	if s.rng.Float64() < s.agent.Epsilon() {
		return s.rng.Intn(2)
	}
	q := s.agent.QValues(st)
	if q[actionStop] > q[actionContinue]+bias {
		return actionStop
	}
	return actionContinue
}

// SetExpectedRuns updates the expected production-run count (§VI: lets a
// user who knows the application will run long enough push the stopper to
// keep tuning).
func (s *EarlyStopper) SetExpectedRuns(runs float64) {
	s.cfg.ExpectedRuns = runs
}

// Reset implements tuner.Stopper: clears per-episode state, keeping the
// learned weights.
func (s *EarlyStopper) Reset() {
	s.history = s.history[:0]
	s.delayed.Reset()
	if s.cfg.PerfScale == 0 {
		s.scale = 0
	}
}

// MarshalJSON serializes the trained agent and configuration.
func (s *EarlyStopper) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Cfg   StopperConfig `json:"cfg"`
		Agent *rl.QAgent    `json:"agent"`
	}{s.cfg, s.agent})
}

// UnmarshalJSON restores a serialized stopper.
func (s *EarlyStopper) UnmarshalJSON(data []byte) error {
	var payload struct {
		Cfg   StopperConfig   `json:"cfg"`
		Agent json.RawMessage `json:"agent"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		return err
	}
	payload.Cfg.fillDefaults()
	agent := &rl.QAgent{}
	if err := json.Unmarshal(payload.Agent, agent); err != nil {
		return fmt.Errorf("core: stopper agent: %w", err)
	}
	s.restore(payload.Cfg, agent)
	return nil
}

// restore makes s a stopper as shipped: the given configuration and trained
// agent, its exploration stream reseeded and no reward pending.
func (s *EarlyStopper) restore(cfg StopperConfig, agent *rl.QAgent) {
	s.cfg = cfg
	s.agent = agent
	s.rng = rand.New(rand.NewSource(cfg.Seed))
	s.delayed = rl.NewDelayedReward(cfg.RewardDelay)
	s.scale = cfg.PerfScale
	s.learn = true
}

// Clone returns the stopper a MarshalJSON/UnmarshalJSON round trip yields,
// without the encoding.
func (s *EarlyStopper) Clone() *EarlyStopper {
	c := &EarlyStopper{}
	c.restore(s.cfg, s.agent.Clone())
	return c
}

// LogCurve is a synthetic tuning trajectory used for offline training: the
// paper observes that tuning performance follows a logarithmic curve
// (Figure 2) and trains the stopping agent on generated log curves with
// noise, including randomized downward shifts modeling iterations where a
// wrong parameter was briefly chosen.
type LogCurve struct {
	Base, Amp, Growth float64
	// Sat is the iteration at which the curve reaches Base+Amp (the
	// normalization point); training sets it inside the tuning horizon so
	// episodes see both growth and exhausted regimes. Default 50.
	Sat               int
	Noise             float64
	DipProb, DipDepth float64
	Plateau           int // iterations of mid-curve stall (0 = none)
	PlateauAt         int
}

// RandomLogCurveHorizon draws curve characteristics (initial value, growth
// rate, saturation point, noise, dips) from the generator's distribution,
// saturating within 30%-90% of the tuning horizon.
func RandomLogCurveHorizon(rng *rand.Rand, horizon int) LogCurve {
	if horizon < 4 {
		horizon = 4
	}
	c := LogCurve{
		Base:     200 + rng.Float64()*800,
		Amp:      500 + rng.Float64()*3500,
		Growth:   0.2 + rng.Float64()*1.3,
		Sat:      int(float64(horizon) * (0.3 + rng.Float64()*0.6)),
		Noise:    0.01 + rng.Float64()*0.04,
		DipProb:  0.05 + rng.Float64()*0.1,
		DipDepth: 0.05 + rng.Float64()*0.2,
	}
	if c.Sat < 2 {
		c.Sat = 2
	}
	if rng.Float64() < 0.4 {
		c.Plateau = 2 + rng.Intn(1+horizon/6)
		c.PlateauAt = 2 + rng.Intn(1+horizon/3)
	}
	return c
}

// At returns the curve's best-perf value at iteration i (monotone in
// expectation; the caller applies running-max semantics). Beyond Sat the
// curve is exhausted and stays at Base+Amp.
func (c LogCurve) At(i int, rng *rand.Rand) float64 {
	sat := c.Sat
	if sat <= 0 {
		sat = 50
	}
	eff := i
	if c.Plateau > 0 && i > c.PlateauAt {
		eff = i - c.Plateau
		if eff < c.PlateauAt {
			eff = c.PlateauAt
		}
	}
	if eff > sat {
		eff = sat
	}
	v := c.Base + c.Amp*math.Log1p(c.Growth*float64(eff))/math.Log1p(c.Growth*float64(sat))
	v *= 1 + rng.NormFloat64()*c.Noise
	if rng.Float64() < c.DipProb {
		v *= 1 - c.DipDepth // wrong parameter chosen this iteration
	}
	return v
}

// TrainEarlyStopper trains a stopper offline on synthetic log curves until
// the average episode reward stagnates (less than 5% improvement across
// five epochs, the paper's criterion) or maxEpochs elapses. The returned
// stopper has exploration dialed down for deployment but keeps learning
// online.
func TrainEarlyStopper(cfg StopperConfig, maxEpochs int, rng *rand.Rand) (*EarlyStopper, error) {
	s, err := NewEarlyStopper(cfg)
	if err != nil {
		return nil, err
	}
	if maxEpochs <= 0 {
		maxEpochs = 60
	}
	const episodesPerEpoch = 40
	// Exploration must decay before the stagnation criterion is
	// meaningful: early epochs have noisy-flat average rewards.
	const burnInEpochs = 15
	var avgHistory []float64
	for epoch := 0; epoch < maxEpochs; epoch++ {
		total := 0.0
		for ep := 0; ep < episodesPerEpoch; ep++ {
			total += s.trainEpisode(rng)
		}
		avg := total / episodesPerEpoch
		avgHistory = append(avgHistory, avg)
		if epoch >= burnInEpochs && stagnated(avgHistory) {
			break
		}
	}
	s.Reset()
	s.SetEpsilon(0.02)
	return s, nil
}

// stagnated reports the paper's offline-training stop criterion: 5% or
// less increase across five epochs.
func stagnated(avg []float64) bool {
	const window = 5
	if len(avg) <= window {
		return false
	}
	ref := avg[len(avg)-1-window]
	cur := avg[len(avg)-1]
	if ref <= 0 {
		return cur <= 0
	}
	return (cur-ref)/math.Abs(ref) <= 0.05
}

// trainEpisode runs one synthetic tuning episode and returns its shaped
// return (for the stagnation criterion).
func (s *EarlyStopper) trainEpisode(rng *rand.Rand) float64 {
	s.Reset()
	curve := RandomLogCurveHorizon(rng, s.cfg.Horizon)
	best := 0.0
	ret := 0.0
	scalePeek := curve.Base + curve.Amp // rough per-episode scale
	if s.cfg.PerfScale == 0 {
		s.scale = 0
	}
	for i := 0; i <= s.cfg.Horizon; i++ {
		v := curve.At(i, rng)
		if v > best {
			best = v
		}
		if s.Stop(i, best) {
			break
		}
		ret -= s.cfg.IterationCost * scalePeek
	}
	ret += best - curve.Base
	return ret / scalePeek
}
