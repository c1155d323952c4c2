package rl

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"tunio/internal/mat"
	"tunio/internal/nn"
)

// QConfig configures a QAgent.
type QConfig struct {
	StateDim int     // width of the state observation vector
	Actions  int     // number of discrete actions
	Hidden   []int   // hidden layer widths (default [32, 32])
	Gamma    float64 // discount factor (default 0.95)
	LR       float64 // Adam learning rate (default 1e-3)

	Epsilon      float64 // initial exploration rate (default 1.0)
	EpsilonMin   float64 // floor (default 0.05)
	EpsilonDecay float64 // multiplicative decay per training step (default 0.995)

	ReplayCapacity int // default 4096
	BatchSize      int // default 32
	TargetSync     int // training steps between target-net syncs (default 50)
}

func (c *QConfig) fillDefaults() {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{32, 32}
	}
	if c.Gamma == 0 {
		c.Gamma = 0.95
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1.0
	}
	if c.EpsilonMin == 0 {
		c.EpsilonMin = 0.05
	}
	if c.EpsilonDecay == 0 {
		c.EpsilonDecay = 0.995
	}
	if c.ReplayCapacity == 0 {
		c.ReplayCapacity = 4096
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.TargetSync == 0 {
		c.TargetSync = 50
	}
}

// QAgent is a neural Q-learning agent (DQN-style: experience replay plus a
// periodically synced target network).
type QAgent struct {
	cfg     QConfig
	net     *nn.Network
	target  *nn.Network
	trainer *nn.Trainer
	buf     *ReplayBuffer
	eps     float64
	steps   int
}

// NewQAgent builds an agent; rng seeds weight init.
func NewQAgent(cfg QConfig, rng *rand.Rand) (*QAgent, error) {
	if cfg.StateDim <= 0 || cfg.Actions <= 0 {
		return nil, fmt.Errorf("rl: NewQAgent: need positive StateDim/Actions, got %d/%d", cfg.StateDim, cfg.Actions)
	}
	cfg.fillDefaults()
	specs := make([]nn.LayerSpec, 0, len(cfg.Hidden)+1)
	for _, h := range cfg.Hidden {
		specs = append(specs, nn.LayerSpec{Out: h, Act: nn.ReLU})
	}
	specs = append(specs, nn.LayerSpec{Out: cfg.Actions, Act: nn.Linear})
	net := nn.NewNetwork(cfg.StateDim, rng, specs...)
	a := &QAgent{
		cfg:     cfg,
		net:     net,
		target:  net.Clone(),
		trainer: &nn.Trainer{Net: net, Loss: nn.Huber, Opt: nn.NewAdam(cfg.LR)},
		buf:     NewReplayBuffer(cfg.ReplayCapacity),
		eps:     cfg.Epsilon,
	}
	return a, nil
}

// Actions returns the size of the action space.
func (a *QAgent) Actions() int { return a.cfg.Actions }

// Epsilon returns the current exploration rate.
func (a *QAgent) Epsilon() float64 { return a.eps }

// SetEpsilon overrides the exploration rate (used when deploying an
// offline-trained agent online with reduced exploration).
func (a *QAgent) SetEpsilon(eps float64) { a.eps = eps }

// QValues returns the online network's Q estimates for a state.
func (a *QAgent) QValues(state []float64) []float64 {
	return a.net.Forward(state)
}

// SelectAction picks an action ε-greedily.
func (a *QAgent) SelectAction(state []float64, rng *rand.Rand) int {
	if rng.Float64() < a.eps {
		return rng.Intn(a.cfg.Actions)
	}
	return a.GreedyAction(state)
}

// GreedyAction returns argmax_a Q(state, a).
func (a *QAgent) GreedyAction(state []float64) int {
	return mat.ArgMax(a.QValues(state))
}

// Observe stores a transition in the replay buffer.
func (a *QAgent) Observe(t Transition) {
	if len(t.State) != a.cfg.StateDim {
		panic(fmt.Sprintf("rl: Observe: state dim %d, want %d", len(t.State), a.cfg.StateDim))
	}
	if t.Action < 0 || t.Action >= a.cfg.Actions {
		panic(fmt.Sprintf("rl: Observe: action %d out of range %d", t.Action, a.cfg.Actions))
	}
	a.buf.Add(t)
}

// TrainStep samples a minibatch and performs one Q-learning update,
// returning the batch loss. It is a no-op (returning 0) until the buffer
// holds at least one batch.
func (a *QAgent) TrainStep(rng *rand.Rand) float64 {
	if a.buf.Len() < a.cfg.BatchSize {
		return 0
	}
	batch := a.buf.Sample(a.cfg.BatchSize, rng)
	samples := make([]nn.Sample, len(batch))
	masks := make([][]bool, len(batch))
	for i, tr := range batch {
		target := make([]float64, a.cfg.Actions)
		mask := make([]bool, a.cfg.Actions)
		y := tr.Reward
		if !tr.Done {
			y += a.cfg.Gamma * mat.MaxVal(a.target.Forward(tr.Next))
		}
		target[tr.Action] = y
		mask[tr.Action] = true
		samples[i] = nn.Sample{In: tr.State, Target: target}
		masks[i] = mask
	}
	loss := a.trainer.TrainMasked(samples, masks)

	a.steps++
	if a.steps%a.cfg.TargetSync == 0 {
		if err := a.target.CopyWeightsFrom(a.net); err != nil {
			panic("rl: target sync: " + err.Error())
		}
	}
	if a.eps > a.cfg.EpsilonMin {
		a.eps *= a.cfg.EpsilonDecay
		if a.eps < a.cfg.EpsilonMin {
			a.eps = a.cfg.EpsilonMin
		}
	}
	return loss
}

// qAgentJSON is the serialized form of an agent (weights + config; the
// replay buffer is not persisted).
type qAgentJSON struct {
	Cfg QConfig     `json:"cfg"`
	Net *nn.Network `json:"net"`
	Eps float64     `json:"eps"`
}

// MarshalJSON serializes the agent for shipping offline-trained models.
func (a *QAgent) MarshalJSON() ([]byte, error) {
	return json.Marshal(qAgentJSON{Cfg: a.cfg, Net: a.net, Eps: a.eps})
}

// UnmarshalJSON restores an agent serialized with MarshalJSON.
func (a *QAgent) UnmarshalJSON(data []byte) error {
	var aj qAgentJSON
	aj.Net = &nn.Network{}
	if err := json.Unmarshal(data, &aj); err != nil {
		return err
	}
	aj.Cfg.fillDefaults()
	if aj.Cfg.StateDim <= 0 || aj.Cfg.Actions <= 0 {
		return fmt.Errorf("rl: UnmarshalJSON: invalid config %+v", aj.Cfg)
	}
	*a = *restoredQAgent(aj.Cfg, aj.Net, aj.Eps)
	return nil
}

// restoredQAgent is an agent as shipped: the persisted weights, config and
// exploration rate, with everything a shipped model does not carry new — a
// target network cloned from the weights, a fresh optimizer, an empty
// replay buffer, no training steps taken.
func restoredQAgent(cfg QConfig, net *nn.Network, eps float64) *QAgent {
	return &QAgent{
		cfg:     cfg,
		net:     net,
		target:  net.Clone(),
		trainer: &nn.Trainer{Net: net, Loss: nn.Huber, Opt: nn.NewAdam(cfg.LR)},
		buf:     NewReplayBuffer(cfg.ReplayCapacity),
		eps:     eps,
	}
}

// Clone returns the agent a MarshalJSON/UnmarshalJSON round trip yields —
// independent weights, none of the training state — without the encoding.
func (a *QAgent) Clone() *QAgent {
	cfg := a.cfg
	cfg.Hidden = append([]int(nil), cfg.Hidden...)
	return restoredQAgent(cfg, a.net.Clone(), a.eps)
}
