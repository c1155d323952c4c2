package cluster

import (
	"math"
	"testing"
)

func noiseless(nodes, ppn int) *Cluster {
	c := CoriHaswell(nodes, ppn)
	c.Noise = 0
	return c
}

func TestValidate(t *testing.T) {
	good := CoriHaswell(4, 32)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Cluster{
		{Nodes: 0, ProcsPerNode: 1, NICBandwidth: 1, MemBandwidth: 1, FlopRate: 1},
		{Nodes: 1, ProcsPerNode: 1, NICBandwidth: 0, MemBandwidth: 1, FlopRate: 1},
		{Nodes: 1, ProcsPerNode: 1, NICBandwidth: 1, MemBandwidth: 1, FlopRate: 1, Noise: 0.9},
		{Nodes: 1, ProcsPerNode: 1, NICBandwidth: 1, MemBandwidth: 1, FlopRate: 1, NICLatency: -1},
		// every comparison with NaN is false, so range checks alone let it by
		{Nodes: 1, ProcsPerNode: 1, NICBandwidth: 1, MemBandwidth: 1, FlopRate: 1, Noise: math.NaN()},
		{Nodes: 1, ProcsPerNode: 1, NICBandwidth: math.NaN(), MemBandwidth: 1, FlopRate: 1},
		{Nodes: 1, ProcsPerNode: 1, NICBandwidth: 1, MemBandwidth: math.Inf(1), FlopRate: 1},
		{Nodes: 1, ProcsPerNode: 1, NICBandwidth: 1, MemBandwidth: 1, FlopRate: math.Inf(1)},
		{Nodes: 1, ProcsPerNode: 1, NICBandwidth: 1, MemBandwidth: 1, FlopRate: 1, NICLatency: math.Inf(1)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestProcs(t *testing.T) {
	if CoriHaswell(4, 32).Procs() != 128 {
		t.Fatal("Procs wrong")
	}
}

func TestNewSimRejectsInvalid(t *testing.T) {
	if _, err := NewSim(&Cluster{}, 1); err == nil {
		t.Fatal("want error")
	}
}

func TestClockAdvances(t *testing.T) {
	s, err := NewSim(noiseless(2, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Now() != 0 {
		t.Fatal("clock should start at 0")
	}
	s.Advance(1.5)
	s.Advance(0.5)
	if s.Now() != 2 {
		t.Fatalf("Now = %v, want 2", s.Now())
	}
}

func TestAdvanceRejectsNegative(t *testing.T) {
	s, _ := NewSim(noiseless(1, 1), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	s.Advance(-1)
}

func TestComputeCharges(t *testing.T) {
	c := noiseless(1, 1)
	s, _ := NewSim(c, 1)
	d := s.Compute(c.FlopRate * 2) // 2 seconds of flops
	if math.Abs(d-2) > 1e-12 || math.Abs(s.Now()-2) > 1e-12 {
		t.Fatalf("Compute elapsed %v, clock %v", d, s.Now())
	}
}

func TestPerturbNoiseless(t *testing.T) {
	s, _ := NewSim(noiseless(1, 1), 1)
	if s.Perturb(3.14) != 3.14 {
		t.Fatal("noiseless Perturb must be identity")
	}
}

func TestPerturbBoundedAndSeeded(t *testing.T) {
	c := CoriHaswell(1, 1) // Noise = 0.04
	a, _ := NewSim(c, 42)
	b, _ := NewSim(c, 42)
	for i := 0; i < 1000; i++ {
		pa := a.Perturb(1)
		pb := b.Perturb(1)
		if pa != pb {
			t.Fatal("same seed produced different noise")
		}
		if pa < 0.5 || pa > 1.5 {
			t.Fatalf("noise out of clamp range: %v", pa)
		}
	}
}

func TestNetworkShuffle(t *testing.T) {
	c := noiseless(4, 2)
	s, _ := NewSim(c, 1)
	// 2 destination nodes bound the transfer: bytes / (2 * NICBandwidth)
	bytes := int64(2 * c.NICBandwidth)
	d := s.NetworkShuffle(bytes, 4, 2, 0)
	if math.Abs(d-1) > 1e-9 {
		t.Fatalf("shuffle time = %v, want 1", d)
	}
	// message latency term
	d2 := s.NetworkShuffle(0, 4, 4, 100)
	if math.Abs(d2-100*c.NICLatency) > 1e-12 {
		t.Fatalf("latency-only shuffle = %v", d2)
	}
}

func TestNetworkShuffleClampsToClusterNodes(t *testing.T) {
	c := noiseless(2, 1)
	s, _ := NewSim(c, 1)
	bytes := int64(2 * c.NICBandwidth)
	// Requesting 100 nodes on both sides must clamp to the 2 real nodes.
	d := s.NetworkShuffle(bytes, 100, 100, 0)
	if math.Abs(d-1) > 1e-9 {
		t.Fatalf("clamped shuffle = %v, want 1", d)
	}
}

func TestNetworkShuffleValidation(t *testing.T) {
	s, _ := NewSim(noiseless(1, 1), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	s.NetworkShuffle(-1, 1, 1, 0)
}

func TestBarrierScalesWithProcs(t *testing.T) {
	s, _ := NewSim(noiseless(16, 16), 1)
	small := s.Barrier(2)
	large := s.Barrier(256)
	if large <= small {
		t.Fatalf("barrier(256)=%v should exceed barrier(2)=%v", large, small)
	}
}

func TestBarrierRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -3} {
		s, _ := NewSim(noiseless(1, 1), 1)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Barrier(%d): want panic", n)
				}
			}()
			s.Barrier(n)
		}()
	}
}

func TestAdvanceRejectsInf(t *testing.T) {
	s, _ := NewSim(noiseless(1, 1), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on Advance(+Inf)")
		}
	}()
	s.Advance(math.Inf(1))
}

func TestNetworkShuffleRejectsNegativeMessages(t *testing.T) {
	s, _ := NewSim(noiseless(2, 1), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on negative messages")
		}
	}()
	s.NetworkShuffle(1<<20, 1, 1, -5)
}

// TestPerturbMeanUnbiased pins the satellite fix: the symmetric clamp
// keeps the empirical mean factor at 1 even at the maximum permitted
// noise, where the old one-sided clamp inflated it by several percent.
func TestPerturbMeanUnbiased(t *testing.T) {
	for _, noise := range []float64{0.04, 0.2, 0.5} {
		c := noiseless(1, 1)
		c.Noise = noise
		s, _ := NewSim(c, 12345)
		const n = 200000
		sum := 0.0
		k := 3 * noise
		if k > 0.99 {
			k = 0.99
		}
		for i := 0; i < n; i++ {
			f := s.Perturb(1)
			if f < 1-k-1e-12 || f > 1+k+1e-12 {
				t.Fatalf("noise %v: factor %v outside [1-k, 1+k]", noise, f)
			}
			sum += f
		}
		mean := sum / n
		// stderr of the clamped mean is < noise/sqrt(n); 5 sigma margin.
		if tol := 5 * noise / math.Sqrt(n); math.Abs(mean-1) > tol {
			t.Errorf("noise %v: mean factor %v, want 1 +/- %v", noise, mean, tol)
		}
	}
}

func TestEpochAndTime(t *testing.T) {
	s, _ := NewSim(noiseless(1, 1), 1)
	s.SetEpoch(100)
	s.Advance(2)
	if s.Epoch() != 100 || s.Now() != 2 || s.Time() != 102 {
		t.Fatalf("epoch/now/time = %v/%v/%v", s.Epoch(), s.Now(), s.Time())
	}
	s.Reset(1)
	if s.Epoch() != 0 || s.Time() != 0 {
		t.Fatal("Reset must clear the epoch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on negative epoch")
		}
	}()
	s.SetEpoch(-1)
}

func TestComputeRejectsNegative(t *testing.T) {
	s, _ := NewSim(noiseless(1, 1), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	s.Compute(-5)
}
