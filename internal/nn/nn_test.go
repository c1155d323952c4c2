package nn

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sgd is stochastic gradient descent with optional momentum: the simplest
// Optimizer, which the tests train with. Each layer's velocity is made by
// the first Step that reaches it.
type sgd struct {
	LR       float64
	Momentum float64

	vel map[*Dense][2][]float64
}

// Step implements Optimizer.
func (s *sgd) Step(n *Network, batchSize int) {
	if batchSize < 1 {
		batchSize = 1
	}
	inv := 1 / float64(batchSize)
	for _, l := range n.Layers {
		v, ok := s.vel[l]
		if !ok {
			v = [2][]float64{make([]float64, len(l.W)), make([]float64, len(l.B))}
			if s.vel == nil {
				s.vel = map[*Dense][2][]float64{}
			}
			s.vel[l] = v
		}
		for i := range l.W {
			g := l.gradW[i] * inv
			v[0][i] = s.Momentum*v[0][i] - s.LR*g
			l.W[i] += v[0][i]
		}
		for i := range l.B {
			g := l.gradB[i] * inv
			v[1][i] = s.Momentum*v[1][i] - s.LR*g
			l.B[i] += v[1][i]
		}
	}
}

func TestActivations(t *testing.T) {
	cases := []struct {
		act  Activation
		in   float64
		want float64
	}{
		{ReLU, -2, 0}, {ReLU, 3, 3},
		{Linear, -2, -2},
		{Tanh, 0, 0},
		{Sigmoid, 0, 0.5},
	}
	for _, c := range cases {
		if got := c.act.apply(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s(%v) = %v, want %v", c.act, c.in, got, c.want)
		}
	}
}

func TestActivationDerivConsistency(t *testing.T) {
	// deriv(y) where y = act(x) must match numeric d act/dx.
	for _, act := range []Activation{ReLU, Tanh, Sigmoid, Linear} {
		for _, x := range []float64{-1.5, -0.3, 0.4, 2.0} {
			h := 1e-6
			num := (act.apply(x+h) - act.apply(x-h)) / (2 * h)
			ana := act.deriv(act.apply(x))
			if math.Abs(num-ana) > 1e-5 {
				t.Errorf("%s'(%v): numeric %v vs analytic %v", act, x, num, ana)
			}
		}
	}
}

func TestUnknownActivationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Activation("bogus").apply(1)
}

func TestForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewNetwork(3, rng, LayerSpec{8, ReLU}, LayerSpec{2, Linear})
	out := n.Forward([]float64{1, 2, 3})
	if len(out) != 2 {
		t.Fatalf("output len = %d, want 2", len(out))
	}
	if n.InputSize() != 3 || n.OutputSize() != 2 {
		t.Fatalf("sizes = %d/%d", n.InputSize(), n.OutputSize())
	}
	if n.NumParams() != 3*8+8+8*2+2 {
		t.Fatalf("NumParams = %d", n.NumParams())
	}
}

func TestForwardBadInputPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewNetwork(3, rng, LayerSpec{2, Linear})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on wrong input width")
		}
	}()
	n.Forward([]float64{1})
}

func TestGradientCheck(t *testing.T) {
	// Analytic gradients must match numeric finite differences.
	rng := rand.New(rand.NewSource(7))
	n := NewNetwork(4, rng, LayerSpec{5, Tanh}, LayerSpec{3, Sigmoid}, LayerSpec{2, Linear})
	in := []float64{0.3, -0.2, 0.5, 0.1}
	target := []float64{1.0, -0.5}

	lossOf := func() float64 {
		pred := n.Forward(in)
		s := 0.0
		for j := range pred {
			d := pred[j] - target[j]
			s += d * d
		}
		return s
	}

	// analytic
	n.ZeroGrad()
	pred := n.Forward(in)
	dOut := make([]float64, len(pred))
	for j := range pred {
		dOut[j] = 2 * (pred[j] - target[j])
	}
	n.Backward(dOut)

	const h = 1e-6
	for li, l := range n.Layers {
		for wi := range l.W {
			orig := l.W[wi]
			l.W[wi] = orig + h
			up := lossOf()
			l.W[wi] = orig - h
			down := lossOf()
			l.W[wi] = orig
			num := (up - down) / (2 * h)
			if math.Abs(num-l.gradW[wi]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d W[%d]: numeric %v vs analytic %v", li, wi, num, l.gradW[wi])
			}
		}
		for bi := range l.B {
			orig := l.B[bi]
			l.B[bi] = orig + h
			up := lossOf()
			l.B[bi] = orig - h
			down := lossOf()
			l.B[bi] = orig
			num := (up - down) / (2 * h)
			if math.Abs(num-l.gradB[bi]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d B[%d]: numeric %v vs analytic %v", li, bi, num, l.gradB[bi])
			}
		}
	}
}

func TestTrainXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := NewNetwork(2, rng, LayerSpec{8, Tanh}, LayerSpec{1, Sigmoid})
	tr := &Trainer{Net: net, Loss: MSE, Opt: NewAdam(0.05)}
	data := []Sample{
		{[]float64{0, 0}, []float64{0}},
		{[]float64{0, 1}, []float64{1}},
		{[]float64{1, 0}, []float64{1}},
		{[]float64{1, 1}, []float64{0}},
	}
	loss := tr.Fit(data, 800, 4, rng)
	if loss > 0.02 {
		t.Fatalf("XOR did not converge: final loss %v", loss)
	}
	for _, s := range data {
		pred := net.Forward(s.In)[0]
		if math.Abs(pred-s.Target[0]) > 0.25 {
			t.Errorf("xor(%v) = %v, want %v", s.In, pred, s.Target[0])
		}
	}
}

func TestTrainLinearRegressionSGD(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork(2, rng, LayerSpec{1, Linear})
	tr := &Trainer{Net: net, Loss: MSE, Opt: &sgd{LR: 0.05, Momentum: 0.9}}
	// y = 2a - 3b + 1
	var data []Sample
	for i := 0; i < 64; i++ {
		a, b := rng.Float64(), rng.Float64()
		data = append(data, Sample{[]float64{a, b}, []float64{2*a - 3*b + 1}})
	}
	loss := tr.Fit(data, 300, 16, rng)
	if loss > 1e-3 {
		t.Fatalf("linear regression did not converge: loss %v", loss)
	}
	l := net.Layers[0]
	if math.Abs(l.W[0]-2) > 0.1 || math.Abs(l.W[1]+3) > 0.1 || math.Abs(l.B[0]-1) > 0.1 {
		t.Fatalf("learned W=%v B=%v, want [2 -3], [1]", l.W, l.B)
	}
}

func TestHuberLoss(t *testing.T) {
	// Small residual: quadratic; large: linear with unit gradient.
	l, g := Huber.lossGrad(0.5, 0)
	if math.Abs(l-0.125) > 1e-12 || math.Abs(g-0.5) > 1e-12 {
		t.Fatalf("huber small: %v, %v", l, g)
	}
	l, g = Huber.lossGrad(3, 0)
	if math.Abs(l-2.5) > 1e-12 || g != 1 {
		t.Fatalf("huber large: %v, %v", l, g)
	}
	l, g = Huber.lossGrad(-3, 0)
	if math.Abs(l-2.5) > 1e-12 || g != -1 {
		t.Fatalf("huber large negative: %v, %v", l, g)
	}
}

func TestTrainMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewNetwork(1, rng, LayerSpec{4, Tanh}, LayerSpec{2, Linear})
	tr := &Trainer{Net: net, Loss: MSE, Opt: NewAdam(0.02)}
	// Only train output 0 to be 5; output 1 is masked out everywhere.
	before := net.Forward([]float64{1})[1]
	for i := 0; i < 400; i++ {
		tr.TrainMasked(
			[]Sample{{[]float64{1}, []float64{5, -100}}},
			[][]bool{{true, false}},
		)
	}
	out := net.Forward([]float64{1})
	if math.Abs(out[0]-5) > 0.2 {
		t.Fatalf("masked training failed: out[0] = %v, want 5", out[0])
	}
	// Output 1 shares hidden weights so it may drift, but it must not
	// approach the masked -100 target.
	if out[1] < -50 {
		t.Fatalf("masked output trained anyway: %v (was %v)", out[1], before)
	}
}

func TestCloneAndCopyWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewNetwork(2, rng, LayerSpec{3, ReLU}, LayerSpec{1, Linear})
	b := a.Clone()
	in := []float64{0.4, -0.7}
	if math.Abs(a.Forward(in)[0]-b.Forward(in)[0]) > 1e-15 {
		t.Fatal("clone output differs")
	}
	// Mutate a's output bias (always visible in the output); b unchanged.
	a.Layers[1].B[0] += 1
	if math.Abs(a.Forward(in)[0]-b.Forward(in)[0]) < 1e-15 {
		t.Fatal("clone shares storage")
	}
	if err := b.CopyWeightsFrom(a); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Forward(in)[0]-b.Forward(in)[0]) > 1e-15 {
		t.Fatal("CopyWeightsFrom did not copy")
	}
	c := NewNetwork(2, rng, LayerSpec{4, ReLU}, LayerSpec{1, Linear})
	if err := c.CopyWeightsFrom(a); err == nil {
		t.Fatal("CopyWeightsFrom with mismatched shapes: want error")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := NewNetwork(3, rng, LayerSpec{4, Tanh}, LayerSpec{2, Linear})
	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var b Network
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	in := []float64{0.1, 0.2, 0.3}
	ao, bo := a.Forward(in), b.Forward(in)
	for i := range ao {
		if math.Abs(ao[i]-bo[i]) > 1e-15 {
			t.Fatalf("round-trip output differs at %d: %v vs %v", i, ao[i], bo[i])
		}
	}
	// Restored network must be trainable (grad buffers allocated).
	tr := &Trainer{Net: &b, Loss: MSE, Opt: &sgd{LR: 0.01}}
	tr.TrainBatch([]Sample{{in, []float64{0, 0}}})
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	var n Network
	if err := json.Unmarshal([]byte(`{"layers":[]}`), &n); err == nil {
		t.Fatal("empty layers: want error")
	}
	if err := json.Unmarshal([]byte(`{"layers":[{"in":2,"out":1,"act":"linear","w":[1],"b":[0]}]}`), &n); err == nil {
		t.Fatal("inconsistent shapes: want error")
	}
}

func TestDeterministicInit(t *testing.T) {
	a := NewNetwork(2, rand.New(rand.NewSource(99)), LayerSpec{3, ReLU}, LayerSpec{1, Linear})
	b := NewNetwork(2, rand.New(rand.NewSource(99)), LayerSpec{3, ReLU}, LayerSpec{1, Linear})
	for i := range a.Layers[0].W {
		if a.Layers[0].W[i] != b.Layers[0].W[i] {
			t.Fatal("same seed produced different weights")
		}
	}
}

func TestSigmoidOutputBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := NewNetwork(3, rng, LayerSpec{6, ReLU}, LayerSpec{1, Sigmoid})
	f := func(a, b, c float64) bool {
		in := []float64{math.Mod(a, 100), math.Mod(b, 100), math.Mod(c, 100)}
		for i, v := range in {
			if math.IsNaN(v) {
				in[i] = 0
			}
		}
		y := n.Forward(in)[0]
		return y >= 0 && y <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewNetworkValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, f := range []func(){
		func() { NewNetwork(0, rng, LayerSpec{1, Linear}) },
		func() { NewNetwork(2, rng) },
		func() { NewNetwork(2, rng, LayerSpec{0, Linear}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic")
				}
			}()
			f()
		}()
	}
}
