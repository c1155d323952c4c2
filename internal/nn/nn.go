// Package nn implements the small feed-forward neural networks TunIO's
// reinforcement-learning agents are built from.
//
// The paper's reference implementation builds its state observer and
// Q-functions in Keras; this package provides the equivalent pieces from
// scratch: dense layers, the usual activations, mean-squared-error and Huber
// losses, the Adam optimizer (any Optimizer plugs in; the tests train with
// SGD with momentum), and JSON (de)serialization so offline-trained agents
// can be shipped with the library.
//
// All randomness is drawn from an explicit *rand.Rand so training is
// reproducible under a seed.
package nn

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
)

// Activation identifies a layer activation function.
type Activation string

// Supported activations.
const (
	Linear  Activation = "linear"
	ReLU    Activation = "relu"
	Tanh    Activation = "tanh"
	Sigmoid Activation = "sigmoid"
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Tanh:
		return math.Tanh(x)
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Linear:
		return x
	default:
		panic(fmt.Sprintf("nn: unknown activation %q", a))
	}
}

// derivative of the activation expressed in terms of the activated output y.
func (a Activation) deriv(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	case Sigmoid:
		return y * (1 - y)
	case Linear:
		return 1
	default:
		panic(fmt.Sprintf("nn: unknown activation %q", a))
	}
}

// Dense is a fully connected layer: out = act(W*in + b).
type Dense struct {
	In, Out int
	Act     Activation
	W       []float64 // Out x In, row-major
	B       []float64 // Out

	// scratch saved by Forward for Backward
	lastIn  []float64
	lastOut []float64

	// gradient accumulators
	gradW []float64
	gradB []float64
}

// newDense builds a layer with Glorot-uniform initialized weights.
func newDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out, Act: act,
		W:     make([]float64, out*in),
		B:     make([]float64, out),
		gradW: make([]float64, out*in),
		gradB: make([]float64, out),
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range d.W {
		d.W[i] = (rng.Float64()*2 - 1) * limit
	}
	return d
}

// Forward computes the layer output for one input vector.
func (d *Dense) Forward(in []float64) []float64 {
	if len(in) != d.In {
		panic(fmt.Sprintf("nn: Dense.Forward: input len %d, want %d", len(in), d.In))
	}
	out := make([]float64, d.Out)
	for o := 0; o < d.Out; o++ {
		row := d.W[o*d.In : (o+1)*d.In]
		s := d.B[o]
		for i, w := range row {
			s += w * in[i]
		}
		out[o] = d.Act.apply(s)
	}
	d.lastIn = append(d.lastIn[:0], in...)
	d.lastOut = append(d.lastOut[:0], out...)
	return out
}

// Backward consumes dL/dOut, accumulates weight gradients, and returns
// dL/dIn. Forward must have been called first.
func (d *Dense) Backward(dOut []float64) []float64 {
	if len(dOut) != d.Out {
		panic(fmt.Sprintf("nn: Dense.Backward: grad len %d, want %d", len(dOut), d.Out))
	}
	dIn := make([]float64, d.In)
	for o := 0; o < d.Out; o++ {
		dz := dOut[o] * d.Act.deriv(d.lastOut[o])
		d.gradB[o] += dz
		row := d.W[o*d.In : (o+1)*d.In]
		grow := d.gradW[o*d.In : (o+1)*d.In]
		for i := range row {
			grow[i] += dz * d.lastIn[i]
			dIn[i] += dz * row[i]
		}
	}
	return dIn
}

func (d *Dense) zeroGrad() {
	for i := range d.gradW {
		d.gradW[i] = 0
	}
	for i := range d.gradB {
		d.gradB[i] = 0
	}
}

// Network is a stack of dense layers.
type Network struct {
	Layers []*Dense
}

// LayerSpec describes one layer of a network.
type LayerSpec struct {
	Out int
	Act Activation
}

// NewNetwork builds a network with the given input width and layer specs.
func NewNetwork(inputs int, rng *rand.Rand, specs ...LayerSpec) *Network {
	if inputs <= 0 {
		panic("nn: NewNetwork: inputs must be positive")
	}
	if len(specs) == 0 {
		panic("nn: NewNetwork: need at least one layer")
	}
	n := &Network{}
	in := inputs
	for _, s := range specs {
		if s.Out <= 0 {
			panic("nn: NewNetwork: layer width must be positive")
		}
		n.Layers = append(n.Layers, newDense(in, s.Out, s.Act, rng))
		in = s.Out
	}
	return n
}

// InputSize returns the expected input width.
func (n *Network) InputSize() int { return n.Layers[0].In }

// OutputSize returns the output width.
func (n *Network) OutputSize() int { return n.Layers[len(n.Layers)-1].Out }

// Forward runs one input through the network.
func (n *Network) Forward(in []float64) []float64 {
	x := in
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward backpropagates dL/dOut through the network, accumulating
// gradients in each layer.
func (n *Network) Backward(dOut []float64) {
	g := dOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].Backward(g)
	}
}

// ZeroGrad clears accumulated gradients.
func (n *Network) ZeroGrad() {
	for _, l := range n.Layers {
		l.zeroGrad()
	}
}

// Clone returns a deep copy of the network (weights only; optimizer state
// and scratch buffers are not copied).
func (n *Network) Clone() *Network {
	out := &Network{}
	for _, l := range n.Layers {
		c := &Dense{
			In: l.In, Out: l.Out, Act: l.Act,
			W:     append([]float64(nil), l.W...),
			B:     append([]float64(nil), l.B...),
			gradW: make([]float64, len(l.gradW)),
			gradB: make([]float64, len(l.gradB)),
		}
		out.Layers = append(out.Layers, c)
	}
	return out
}

// CopyWeightsFrom copies weights from src (shapes must match).
func (n *Network) CopyWeightsFrom(src *Network) error {
	if len(n.Layers) != len(src.Layers) {
		return fmt.Errorf("nn: CopyWeightsFrom: %d layers vs %d", len(n.Layers), len(src.Layers))
	}
	for i, l := range n.Layers {
		s := src.Layers[i]
		if l.In != s.In || l.Out != s.Out {
			return fmt.Errorf("nn: CopyWeightsFrom: layer %d shape %dx%d vs %dx%d", i, l.Out, l.In, s.Out, s.In)
		}
		copy(l.W, s.W)
		copy(l.B, s.B)
	}
	return nil
}

// NumParams returns the total number of trainable parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += len(l.W) + len(l.B)
	}
	return total
}

// --- serialization ---

type denseJSON struct {
	In  int        `json:"in"`
	Out int        `json:"out"`
	Act Activation `json:"act"`
	W   []float64  `json:"w"`
	B   []float64  `json:"b"`
}

type networkJSON struct {
	Layers []denseJSON `json:"layers"`
}

// MarshalJSON serializes the network weights.
func (n *Network) MarshalJSON() ([]byte, error) {
	var nj networkJSON
	for _, l := range n.Layers {
		nj.Layers = append(nj.Layers, denseJSON{In: l.In, Out: l.Out, Act: l.Act, W: l.W, B: l.B})
	}
	return json.Marshal(nj)
}

// UnmarshalJSON restores a network serialized with MarshalJSON.
func (n *Network) UnmarshalJSON(data []byte) error {
	var nj networkJSON
	if err := json.Unmarshal(data, &nj); err != nil {
		return err
	}
	if len(nj.Layers) == 0 {
		return fmt.Errorf("nn: UnmarshalJSON: no layers")
	}
	n.Layers = nil
	for i, lj := range nj.Layers {
		if len(lj.W) != lj.In*lj.Out || len(lj.B) != lj.Out {
			return fmt.Errorf("nn: UnmarshalJSON: layer %d has inconsistent shapes", i)
		}
		n.Layers = append(n.Layers, &Dense{
			In: lj.In, Out: lj.Out, Act: lj.Act,
			W:     lj.W,
			B:     lj.B,
			gradW: make([]float64, lj.In*lj.Out),
			gradB: make([]float64, lj.Out),
		})
	}
	return nil
}
