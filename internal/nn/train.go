package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Loss identifies a training loss.
type Loss string

// Supported losses.
const (
	MSE   Loss = "mse"
	Huber Loss = "huber" // delta = 1
)

// lossGrad returns (loss, dLoss/dPred) for one scalar prediction.
func (l Loss) lossGrad(pred, target float64) (float64, float64) {
	d := pred - target
	switch l {
	case MSE:
		return d * d, 2 * d
	case Huber:
		if math.Abs(d) <= 1 {
			return 0.5 * d * d, d
		}
		if d > 0 {
			return math.Abs(d) - 0.5, 1
		}
		return math.Abs(d) - 0.5, -1
	default:
		panic(fmt.Sprintf("nn: unknown loss %q", l))
	}
}

// Optimizer updates network weights from accumulated gradients.
type Optimizer interface {
	// Step applies one update using the gradients accumulated in n since
	// the last ZeroGrad, scaled by 1/batchSize.
	Step(n *Network, batchSize int)
}

// Adam is the Adam optimizer (Kingma & Ba).
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t     int
	state map[*Dense][4][]float64 // mW, vW, mB, vB
}

// NewAdam returns an Adam optimizer with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8, state: make(map[*Dense][4][]float64)}
}

// Step implements Optimizer.
func (a *Adam) Step(n *Network, batchSize int) {
	if batchSize < 1 {
		batchSize = 1
	}
	inv := 1 / float64(batchSize)
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, l := range n.Layers {
		st, ok := a.state[l]
		if !ok {
			st = [4][]float64{
				make([]float64, len(l.W)), make([]float64, len(l.W)),
				make([]float64, len(l.B)), make([]float64, len(l.B)),
			}
			a.state[l] = st
		}
		update := func(params, grads, m, v []float64) {
			for i := range params {
				g := grads[i] * inv
				m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
				v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
				mh := m[i] / bc1
				vh := v[i] / bc2
				params[i] -= a.LR * mh / (math.Sqrt(vh) + a.Epsilon)
			}
		}
		update(l.W, l.gradW, st[0], st[1])
		update(l.B, l.gradB, st[2], st[3])
	}
}

// Sample is one supervised training example.
type Sample struct {
	In     []float64
	Target []float64
}

// Trainer bundles a network, loss, and optimizer for supervised training.
type Trainer struct {
	Net  *Network
	Loss Loss
	Opt  Optimizer
}

// TrainBatch runs one gradient step over the batch and returns mean loss.
func (t *Trainer) TrainBatch(batch []Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	t.Net.ZeroGrad()
	total := 0.0
	count := 0
	for _, s := range batch {
		pred := t.Net.Forward(s.In)
		if len(pred) != len(s.Target) {
			panic(fmt.Sprintf("nn: TrainBatch: prediction width %d, target %d", len(pred), len(s.Target)))
		}
		dOut := make([]float64, len(pred))
		for j := range pred {
			loss, g := t.Loss.lossGrad(pred[j], s.Target[j])
			total += loss
			count++
			dOut[j] = g
		}
		t.Net.Backward(dOut)
	}
	t.Opt.Step(t.Net, len(batch))
	return total / float64(count)
}

// TrainMasked runs one gradient step where only masked outputs contribute
// to the loss (used for Q-learning: only the taken action's Q-value is
// regressed). mask[j] selects whether output j of sample s participates.
func (t *Trainer) TrainMasked(batch []Sample, masks [][]bool) float64 {
	if len(batch) == 0 {
		return 0
	}
	if len(masks) != len(batch) {
		panic("nn: TrainMasked: masks length mismatch")
	}
	t.Net.ZeroGrad()
	total := 0.0
	count := 0
	for bi, s := range batch {
		pred := t.Net.Forward(s.In)
		dOut := make([]float64, len(pred))
		for j := range pred {
			if !masks[bi][j] {
				continue
			}
			loss, g := t.Loss.lossGrad(pred[j], s.Target[j])
			total += loss
			count++
			dOut[j] = g
		}
		t.Net.Backward(dOut)
	}
	t.Opt.Step(t.Net, len(batch))
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// Fit trains for epochs over the dataset with the given batch size,
// shuffling with rng each epoch, and returns the final epoch's mean loss.
func (t *Trainer) Fit(data []Sample, epochs, batchSize int, rng *rand.Rand) float64 {
	if batchSize < 1 {
		batchSize = 1
	}
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	last := 0.0
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		sum, batches := 0.0, 0
		for start := 0; start < len(idx); start += batchSize {
			end := start + batchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := make([]Sample, 0, end-start)
			for _, i := range idx[start:end] {
				batch = append(batch, data[i])
			}
			sum += t.TrainBatch(batch)
			batches++
		}
		if batches > 0 {
			last = sum / float64(batches)
		}
	}
	return last
}
