package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"tunio/internal/params"
)

// trainTestPicker trains a small SmartPicker on a synthetic sweep.
func trainTestPicker(t *testing.T, seed int64) *SmartPicker {
	t.Helper()
	space := params.Space()
	rng := rand.New(rand.NewSource(seed))
	sweep := syntheticSweep(space, rng, 200)
	p, err := TrainSmartPicker(PickerConfig{Seed: seed}, sweep, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// trainTestStopper trains a small EarlyStopper.
func trainTestStopper(t *testing.T, seed int64) *EarlyStopper {
	t.Helper()
	s, err := TrainEarlyStopper(StopperConfig{Seed: seed, Horizon: 8}, 2, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Marshal → unmarshal → marshal must be byte-identical for both agents:
// the training pipeline chains stage hashes on these bytes, and the
// server serves per-job clones from them.
func TestSmartPickerJSONRoundTripStable(t *testing.T) {
	p := trainTestPicker(t, 17)
	first, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	loaded := &SmartPicker{}
	if err := json.Unmarshal(first, loaded); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("picker JSON not stable across a round trip")
	}
}

func TestEarlyStopperJSONRoundTripStable(t *testing.T) {
	s := trainTestStopper(t, 17)
	first, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	loaded := &EarlyStopper{}
	if err := json.Unmarshal(first, loaded); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("stopper JSON not stable across a round trip")
	}
}

// A loaded picker must make the same decisions as the in-memory original.
// With learning off and epsilon zero both are deterministic functions of
// their (identical) learned state.
func TestLoadedPickerMatchesOriginalDecisions(t *testing.T) {
	p := trainTestPicker(t, 23)
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	loaded := &SmartPicker{}
	if err := json.Unmarshal(blob, loaded); err != nil {
		t.Fatal(err)
	}
	for _, a := range []*SmartPicker{p, loaded} {
		a.SetLearning(false)
		a.SetEpsilon(0)
	}
	n := len(params.Space())
	maskP := make([]bool, n)
	maskL := make([]bool, n)
	for i := range maskP {
		maskP[i] = true
		maskL[i] = true
	}
	perfs := []float64{900, 1400, 1350, 2100, 2050, 2600, 2590, 2800}
	for step, perf := range perfs {
		maskP = p.NextSubset(perf, maskP)
		maskL = loaded.NextSubset(perf, maskL)
		for i := range maskP {
			if maskP[i] != maskL[i] {
				t.Fatalf("step %d: masks diverge at param %d", step, i)
			}
		}
	}
}

// Same for the stopper: identical stop decisions along a synthetic
// improvement curve.
func TestLoadedStopperMatchesOriginalDecisions(t *testing.T) {
	s := trainTestStopper(t, 23)
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	loaded := &EarlyStopper{}
	if err := json.Unmarshal(blob, loaded); err != nil {
		t.Fatal(err)
	}
	for _, a := range []*EarlyStopper{s, loaded} {
		a.SetLearning(false)
		a.SetEpsilon(0)
		a.Reset()
	}
	curve := []float64{100, 180, 240, 260, 262, 263, 263, 263, 263, 263, 263, 263}
	for i, best := range curve {
		sp, lp := s.Stop(i, best), loaded.Stop(i, best)
		if sp != lp {
			t.Fatalf("iteration %d: original stop=%v, loaded stop=%v", i, sp, lp)
		}
		if sp {
			break
		}
	}
}

// TunIO.Clone copies the agents without encoding them, and must hand back
// what the encoding round trip did: the learned state and exploration
// rates, and everything else as a freshly loaded agent has it — optimizer,
// replay buffer, target network, step count, exploration stream. A clone of
// the trained agents (all of that state spent) and agents loaded from their
// JSON are driven through 400 learning iterations of the same noisy curve:
// every decision agrees, and afterwards the two serialize to the same bytes,
// so every weight and rate went through the same updates.
func TestCloneIsTheJSONRoundTrip(t *testing.T) {
	trained := &TunIO{Stopper: trainTestStopper(t, 31), Picker: trainTestPicker(t, 31)}
	blob, err := json.Marshal(trained)
	if err != nil {
		t.Fatal(err)
	}
	loaded := &TunIO{Stopper: &EarlyStopper{}, Picker: &SmartPicker{}}
	if err := json.Unmarshal(blob, loaded); err != nil {
		t.Fatal(err)
	}
	cloned, err := trained.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if again, err := json.Marshal(cloned); err != nil || !bytes.Equal(again, blob) {
		t.Fatalf("a clone serializes differently from its original (err %v)", err)
	}

	n := len(params.Space())
	masks := [2][]bool{make([]bool, n), make([]bool, n)}
	for i := 0; i < n; i++ {
		masks[0][i], masks[1][i] = true, true
	}
	r := rand.New(rand.NewSource(7))
	best := 0.0
	for it := 0; it < 400; it++ {
		if it%40 == 0 { // a new episode
			best = 0
			loaded.Reset()
			cloned.Reset()
		}
		perf := 500 + 400*float64(it%40) + 300*r.Float64()
		if perf > best {
			best = perf
		}
		for i, a := range []*TunIO{loaded, cloned} {
			masks[i] = a.SubsetPicker(perf, masks[i])
		}
		if !reflect.DeepEqual(masks[0], masks[1]) {
			t.Fatalf("iteration %d: subsets diverge: loaded %v, cloned %v", it, masks[0], masks[1])
		}
		if l, c := loaded.Stop(it%40, best), cloned.Stop(it%40, best); l != c {
			t.Fatalf("iteration %d: loaded stop=%v, cloned stop=%v", it, l, c)
		}
	}
	a, err := json.Marshal(loaded)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(cloned)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("after the same 400 learning iterations the loaded and the cloned agents differ")
	}
	if bytes.Equal(a, blob) {
		t.Fatal("400 learning iterations left the agents as trained: the test drives nothing")
	}
	if again, err := json.Marshal(trained); err != nil || !bytes.Equal(again, blob) {
		t.Fatalf("driving a clone changed its original (err %v)", err)
	}
}
