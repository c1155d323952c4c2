package tuner

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"tunio/internal/params"
)

// gateProbe counts concurrent evaluations and records the high-water mark.
type gateProbe struct {
	inFlight atomic.Int64
	peak     atomic.Int64
}

func (p *gateProbe) Evaluate(a *params.Assignment, iteration int) (float64, float64, error) {
	n := p.inFlight.Add(1)
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	// Spin a little so evaluations overlap.
	for i := 0; i < 10000; i++ {
		_ = i
	}
	p.inFlight.Add(-1)
	return 1, 1, nil
}

// A shared gate bounds total concurrency across pools even when the sum
// of their worker counts exceeds it.
func TestGateBoundsConcurrencyAcrossPools(t *testing.T) {
	gate := NewGate(2)
	if gate.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2", gate.Cap())
	}
	probe := &gateProbe{}
	space := params.Space()
	batch := make([]*params.Assignment, 32)
	for i := range batch {
		batch[i] = params.DefaultAssignment(space)
	}
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		pool := &Pool{Eval: probe.Evaluate, Workers: 4, Gate: gate}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.EvaluateBatch(context.Background(), batch, 1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if peak := probe.peak.Load(); peak > 2 {
		t.Fatalf("peak concurrency %d exceeded the gate capacity 2", peak)
	}
	if gate.InFlight() != 0 {
		t.Fatalf("gate slots leaked: %d in flight after quiesce", gate.InFlight())
	}
}

// A nil gate is a no-op: unbounded, zero-capacity, and safe to use.
func TestNilGate(t *testing.T) {
	var g *Gate
	if g.Cap() != 0 || g.InFlight() != 0 {
		t.Fatal("nil gate must report zero capacity and zero in flight")
	}
	probe := &gateProbe{}
	pool := &Pool{Eval: probe.Evaluate, Workers: 2, Gate: nil}
	batch := []*params.Assignment{
		params.DefaultAssignment(params.Space()),
		params.DefaultAssignment(params.Space()),
	}
	if _, err := pool.EvaluateBatch(context.Background(), batch, 1); err != nil {
		t.Fatal(err)
	}
}
