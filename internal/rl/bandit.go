package rl

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"tunio/internal/mat"
	"tunio/internal/nn"
)

// ContextualBandit is the neural contextual bandit used as TunIO's State
// Observer (§III-C). It learns to predict the reward of each arm given a
// context vector; its penultimate-layer activations serve as the learned
// state observation that is fed to the downstream Q-learning picker.
type ContextualBandit struct {
	contextDim int
	arms       int
	net        *nn.Network
	trainer    *nn.Trainer
	eps        float64
	epsMin     float64
	epsDecay   float64
	pulls      int
}

// BanditConfig configures a ContextualBandit.
type BanditConfig struct {
	ContextDim int
	Arms       int
	Hidden     []int   // default [24, 16]; the last hidden layer is the state embedding
	LR         float64 // default 1e-3
	Epsilon    float64 // default 0.2
	EpsilonMin float64 // default 0.02
	Decay      float64 // default 0.999
}

// NewContextualBandit builds a bandit; rng seeds weight init.
func NewContextualBandit(cfg BanditConfig, rng *rand.Rand) (*ContextualBandit, error) {
	if cfg.ContextDim <= 0 || cfg.Arms <= 0 {
		return nil, fmt.Errorf("rl: NewContextualBandit: need positive ContextDim/Arms, got %d/%d", cfg.ContextDim, cfg.Arms)
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{24, 16}
	}
	if cfg.LR == 0 {
		cfg.LR = 1e-3
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 0.2
	}
	if cfg.EpsilonMin == 0 {
		cfg.EpsilonMin = 0.02
	}
	if cfg.Decay == 0 {
		cfg.Decay = 0.999
	}
	specs := make([]nn.LayerSpec, 0, len(cfg.Hidden)+1)
	for _, h := range cfg.Hidden {
		specs = append(specs, nn.LayerSpec{Out: h, Act: nn.Tanh})
	}
	specs = append(specs, nn.LayerSpec{Out: cfg.Arms, Act: nn.Linear})
	net := nn.NewNetwork(cfg.ContextDim, rng, specs...)
	return &ContextualBandit{
		contextDim: cfg.ContextDim,
		arms:       cfg.Arms,
		net:        net,
		trainer:    &nn.Trainer{Net: net, Loss: nn.MSE, Opt: nn.NewAdam(cfg.LR)},
		eps:        cfg.Epsilon,
		epsMin:     cfg.EpsilonMin,
		epsDecay:   cfg.Decay,
	}, nil
}

// Arms returns the number of arms.
func (b *ContextualBandit) Arms() int { return b.arms }

// Predict returns the estimated reward for every arm under the context.
func (b *ContextualBandit) Predict(context []float64) []float64 {
	return b.net.Forward(context)
}

// SelectArm chooses an arm ε-greedily for the context.
func (b *ContextualBandit) SelectArm(context []float64, rng *rand.Rand) int {
	if rng.Float64() < b.eps {
		return rng.Intn(b.arms)
	}
	return mat.ArgMax(b.Predict(context))
}

// Update trains the bandit on the observed reward of the pulled arm and
// decays exploration.
func (b *ContextualBandit) Update(context []float64, arm int, reward float64) float64 {
	if arm < 0 || arm >= b.arms {
		panic(fmt.Sprintf("rl: bandit Update: arm %d out of range %d", arm, b.arms))
	}
	target := make([]float64, b.arms)
	mask := make([]bool, b.arms)
	target[arm] = reward
	mask[arm] = true
	loss := b.trainer.TrainMasked([]nn.Sample{{In: context, Target: target}}, [][]bool{mask})
	b.pulls++
	if b.eps > b.epsMin {
		b.eps *= b.epsDecay
		if b.eps < b.epsMin {
			b.eps = b.epsMin
		}
	}
	return loss
}

// Observe returns the state observation for a context: the activations of
// the last hidden layer after a forward pass. This is the "state
// observation representing the relationship between the application and the
// tuning environment" fed to the Subset Picker.
func (b *ContextualBandit) Observe(context []float64) []float64 {
	x := context
	for i := 0; i < len(b.net.Layers)-1; i++ {
		x = b.net.Layers[i].Forward(x)
	}
	return append([]float64(nil), x...)
}

// ObservationDim returns the width of Observe's output.
func (b *ContextualBandit) ObservationDim() int {
	return b.net.Layers[len(b.net.Layers)-2].Out
}

type banditJSON struct {
	ContextDim int         `json:"context_dim"`
	Arms       int         `json:"arms"`
	Net        *nn.Network `json:"net"`
	Eps        float64     `json:"eps"`
	EpsMin     float64     `json:"eps_min"`
	EpsDecay   float64     `json:"eps_decay"`
}

// MarshalJSON serializes the bandit.
func (b *ContextualBandit) MarshalJSON() ([]byte, error) {
	return json.Marshal(banditJSON{
		ContextDim: b.contextDim, Arms: b.arms, Net: b.net,
		Eps: b.eps, EpsMin: b.epsMin, EpsDecay: b.epsDecay,
	})
}

// UnmarshalJSON restores a bandit serialized with MarshalJSON.
func (b *ContextualBandit) UnmarshalJSON(data []byte) error {
	var bj banditJSON
	bj.Net = &nn.Network{}
	if err := json.Unmarshal(data, &bj); err != nil {
		return err
	}
	if bj.ContextDim <= 0 || bj.Arms <= 0 || bj.Net == nil {
		return fmt.Errorf("rl: bandit UnmarshalJSON: invalid payload")
	}
	*b = *restoredBandit(bj)
	return nil
}

// restoredBandit is a bandit as shipped: the persisted weights, shape and
// exploration schedule, with a fresh optimizer at the default learning rate
// (the configured one is not persisted) and no pulls taken.
func restoredBandit(bj banditJSON) *ContextualBandit {
	return &ContextualBandit{
		contextDim: bj.ContextDim,
		arms:       bj.Arms,
		net:        bj.Net,
		trainer:    &nn.Trainer{Net: bj.Net, Loss: nn.MSE, Opt: nn.NewAdam(1e-3)},
		eps:        bj.Eps,
		epsMin:     bj.EpsMin,
		epsDecay:   bj.EpsDecay,
	}
}

// Clone returns the bandit a MarshalJSON/UnmarshalJSON round trip yields,
// without the encoding.
func (b *ContextualBandit) Clone() *ContextualBandit {
	return restoredBandit(banditJSON{
		ContextDim: b.contextDim, Arms: b.arms, Net: b.net.Clone(),
		Eps: b.eps, EpsMin: b.epsMin, EpsDecay: b.epsDecay,
	})
}
