package core

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"tunio/internal/pca"
	"tunio/internal/rl"
)

// PickerConfig configures the Smart Configuration Generation agent.
type PickerConfig struct {
	// NumParams is the size of the parameter space (12 for the paper's
	// evaluation space).
	NumParams int
	// PerfScale normalizes perf; the paper uses BW_single x num_nodes.
	// 0 = adapt to the maximum perf observed.
	PerfScale float64
	// RewardDelay is the paper's 5-iteration reward delay. Default 5.
	RewardDelay int
	// MinSubset floors the subset size. Default 1.
	MinSubset int
	// Seed drives initialization and exploration.
	Seed int64
}

func (c *PickerConfig) fillDefaults() {
	if c.RewardDelay == 0 {
		c.RewardDelay = 5
	}
	if c.MinSubset == 0 {
		c.MinSubset = 2
	}
}

// SmartPicker is TunIO's Smart Configuration Generation component
// (§III-C): an RL agent that selects the subset of parameters to tune in
// the next iteration, ranked by impact on the tuning objective. The State
// Observer is an NN contextual bandit whose hidden representation feeds an
// NN Q-learning Subset Picker. It implements tuner.SubsetPicker.
type SmartPicker struct {
	cfg     PickerConfig
	impact  []float64 // per-parameter impact scores (sum 1)
	ranking []int     // parameter indices by descending impact
	bandit  *rl.ContextualBandit
	agent   *rl.QAgent
	rng     *rand.Rand

	delayed  *rl.DelayedReward
	scale    float64
	learn    bool
	lastMask []bool
	lastPerf float64
}

// NewSmartPicker builds an untrained picker with uniform impact scores.
// Most callers should use TrainSmartPickerFrom for the offline-trained agent.
func NewSmartPicker(cfg PickerConfig) (*SmartPicker, error) {
	cfg.fillDefaults()
	if cfg.NumParams <= 0 {
		return nil, fmt.Errorf("core: NumParams must be positive, got %d", cfg.NumParams)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	contextDim := cfg.NumParams + 2 // perf, mask..., subset fraction
	bandit, err := rl.NewContextualBandit(rl.BanditConfig{
		ContextDim: contextDim,
		Arms:       cfg.NumParams,
		Hidden:     []int{24, 12},
		LR:         2e-3,
	}, rng)
	if err != nil {
		return nil, err
	}
	agent, err := rl.NewQAgent(rl.QConfig{
		StateDim: bandit.ObservationDim() + 1,
		Actions:  cfg.NumParams, // action a selects subset size a+1
		Hidden:   []int{24, 24},
		Gamma:    0.95,
		LR:       2e-3,
		Epsilon:  1.0, EpsilonMin: 0.03, EpsilonDecay: 0.9995,
		BatchSize: 32, TargetSync: 100,
	}, rng)
	if err != nil {
		return nil, err
	}
	impact := make([]float64, cfg.NumParams)
	ranking := make([]int, cfg.NumParams)
	for i := range impact {
		impact[i] = 1 / float64(cfg.NumParams)
		ranking[i] = i
	}
	return &SmartPicker{
		cfg:     cfg,
		impact:  impact,
		ranking: ranking,
		bandit:  bandit,
		agent:   agent,
		rng:     rng,
		delayed: rl.NewDelayedReward(cfg.RewardDelay),
		scale:   cfg.PerfScale,
		learn:   true,
	}, nil
}

// SetImpact installs impact scores (e.g. from the offline PCA analysis)
// and recomputes the ranking.
func (p *SmartPicker) SetImpact(scores []float64) error {
	if len(scores) != p.cfg.NumParams {
		return fmt.Errorf("core: impact scores length %d, want %d", len(scores), p.cfg.NumParams)
	}
	copy(p.impact, scores)
	normalizeSum(p.impact)
	p.ranking = pca.RankDescending(p.impact)
	return nil
}

// Impact returns a copy of the current impact scores.
func (p *SmartPicker) Impact() []float64 {
	return append([]float64(nil), p.impact...)
}

// Ranking returns parameter indices by descending impact.
func (p *SmartPicker) Ranking() []int {
	return append([]int(nil), p.ranking...)
}

// SetLearning toggles online learning.
func (p *SmartPicker) SetLearning(on bool) { p.learn = on }

// SetEpsilon overrides the subset picker's exploration rate.
func (p *SmartPicker) SetEpsilon(e float64) { p.agent.SetEpsilon(e) }

// maskFor returns the top-k mask by impact.
func (p *SmartPicker) maskFor(k int) []bool {
	if k < p.cfg.MinSubset {
		k = p.cfg.MinSubset
	}
	if k > p.cfg.NumParams {
		k = p.cfg.NumParams
	}
	mask := make([]bool, p.cfg.NumParams)
	for _, idx := range p.ranking[:k] {
		mask[idx] = true
	}
	return mask
}

func (p *SmartPicker) context(perf float64, mask []bool) []float64 {
	if p.cfg.PerfScale == 0 && perf > p.scale {
		p.scale = perf
	}
	scale := p.scale
	if scale <= 0 {
		scale = 1
	}
	ctx := make([]float64, 0, p.cfg.NumParams+2)
	ctx = append(ctx, perf/scale)
	k := 0
	for _, m := range mask {
		if m {
			ctx = append(ctx, 1)
			k++
		} else {
			ctx = append(ctx, 0)
		}
	}
	ctx = append(ctx, float64(k)/float64(p.cfg.NumParams))
	return ctx
}

// reward computes the agent's reward from the paper's norm_perf form:
// performance normalized by the subset size, so smaller subsets earn more
// per unit of objective. The subset-size division applies to the perf
// *gained* since the previous decision: a small subset is only rewarded
// while it keeps producing improvements — once progress stagnates the
// size bonus vanishes, which is what pushes the agent to widen the subset
// and escape interaction lock-ins (e.g. collective I/O left on with one
// aggregator).
func (p *SmartPicker) reward(perf float64, k int) float64 {
	scale := p.scale
	if scale <= 0 {
		scale = 1
	}
	frac := float64(k) / float64(p.cfg.NumParams)
	if frac <= 0 {
		frac = 1 / float64(p.cfg.NumParams)
	}
	gain := (perf - p.lastPerf) / scale
	if gain < 0 {
		gain = 0
	}
	return gain/frac/float64(p.cfg.NumParams) + 0.05*(perf/scale)
}

// NextSubset implements tuner.SubsetPicker: given the best perf achieved
// in the last iteration and the subset used, it returns the subset for the
// next iteration.
func (p *SmartPicker) NextSubset(perf float64, current []bool) []bool {
	if len(current) != p.cfg.NumParams {
		// defensive: fall back to everything
		all := make([]bool, len(current))
		for i := range all {
			all[i] = true
		}
		return all
	}
	ctx := p.context(perf, current)
	state := append(p.bandit.Observe(ctx), ctx[0])

	if p.learn && p.lastMask != nil {
		k := countTrue(p.lastMask)
		r := p.reward(perf, k)
		p.bandit.Update(p.context(perf, p.lastMask), k-1, r)
		for _, tr := range p.delayed.Tick(r, state, false) {
			p.agent.Observe(tr)
			p.agent.TrainStep(p.rng)
		}
		// Online impact adaptation: parameters active while performance is
		// high slowly gain impact (the component keeps learning from the
		// applications it is exposed to).
		p.adaptImpact(perf, p.lastMask)
	}
	p.lastPerf = perf

	action := p.agent.SelectAction(state, p.rng)
	mask := p.maskFor(action + 1)
	if p.learn {
		p.delayed.Record(state, action)
	}
	p.lastMask = mask
	return mask
}

// adaptImpact is the online half of impact learning: parameters active
// while the objective improves gain impact; parameters active through
// stagnation slowly lose it (so fresh candidates rotate into the top-k and
// interaction partners locked out of the subset get another chance).
func (p *SmartPicker) adaptImpact(perf float64, mask []bool) {
	scale := p.scale
	if scale <= 0 {
		scale = 1
	}
	gain := (perf - p.lastPerf) / scale
	var lr float64
	if gain > 0 {
		lr = 0.05 * gain
	} else {
		lr = -0.01
	}
	for i, m := range mask {
		if m {
			p.impact[i] += lr * p.impact[i]
		}
	}
	normalizeSum(p.impact)
	p.ranking = pca.RankDescending(p.impact)
}

// Reset implements tuner.SubsetPicker.
func (p *SmartPicker) Reset() {
	p.delayed.Reset()
	p.lastMask = nil
	p.lastPerf = 0
	if p.cfg.PerfScale == 0 {
		p.scale = 0
	}
}

// MarshalJSON serializes the trained picker.
func (p *SmartPicker) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Cfg    PickerConfig         `json:"cfg"`
		Impact []float64            `json:"impact"`
		Bandit *rl.ContextualBandit `json:"bandit"`
		Agent  *rl.QAgent           `json:"agent"`
	}{p.cfg, p.impact, p.bandit, p.agent})
}

// UnmarshalJSON restores a serialized picker.
func (p *SmartPicker) UnmarshalJSON(data []byte) error {
	var payload struct {
		Cfg    PickerConfig    `json:"cfg"`
		Impact []float64       `json:"impact"`
		Bandit json.RawMessage `json:"bandit"`
		Agent  json.RawMessage `json:"agent"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		return err
	}
	payload.Cfg.fillDefaults()
	if payload.Cfg.NumParams <= 0 || len(payload.Impact) != payload.Cfg.NumParams {
		return fmt.Errorf("core: picker payload inconsistent")
	}
	bandit := &rl.ContextualBandit{}
	if err := json.Unmarshal(payload.Bandit, bandit); err != nil {
		return fmt.Errorf("core: picker bandit: %w", err)
	}
	agent := &rl.QAgent{}
	if err := json.Unmarshal(payload.Agent, agent); err != nil {
		return fmt.Errorf("core: picker agent: %w", err)
	}
	p.restore(payload.Cfg, payload.Impact, bandit, agent)
	return nil
}

// restore makes p a picker as shipped: the given configuration, impact
// scores and trained agents, its exploration stream reseeded and no reward
// pending.
func (p *SmartPicker) restore(cfg PickerConfig, impact []float64, bandit *rl.ContextualBandit, agent *rl.QAgent) {
	p.cfg = cfg
	p.impact = impact
	p.ranking = pca.RankDescending(p.impact)
	p.bandit = bandit
	p.agent = agent
	p.rng = rand.New(rand.NewSource(cfg.Seed))
	p.delayed = rl.NewDelayedReward(cfg.RewardDelay)
	p.scale = cfg.PerfScale
	p.learn = true
}

// Clone returns the picker a MarshalJSON/UnmarshalJSON round trip yields,
// without the encoding.
func (p *SmartPicker) Clone() *SmartPicker {
	c := &SmartPicker{}
	c.restore(p.cfg, append([]float64(nil), p.impact...), p.bandit.Clone(), p.agent.Clone())
	return c
}

func countTrue(mask []bool) int {
	n := 0
	for _, m := range mask {
		if m {
			n++
		}
	}
	return n
}

func normalizeSum(v []float64) {
	s := 0.0
	for _, x := range v {
		s += x
	}
	if s <= 0 {
		for i := range v {
			v[i] = 1 / float64(len(v))
		}
		return
	}
	for i := range v {
		v[i] /= s
	}
}
