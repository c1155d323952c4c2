// Package cluster models the machine TunIO's simulated applications run on:
// compute nodes with NICs, a process layout, and a simulated clock with
// seeded noise.
//
// The paper evaluates on the Cori supercomputer's Haswell partition
// (16-core 2.3 GHz Xeon nodes, Lustre scratch with ~700 GB/s aggregate);
// CoriHaswell returns a cluster calibrated to that scale. All time in the
// simulation is virtual: layers compute phase durations from the model and
// advance the Sim clock, so experiments are deterministic under a seed and
// run in milliseconds of wall time.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"tunio/internal/darshan"
)

// Cluster describes the compute side of the machine.
type Cluster struct {
	Nodes        int
	ProcsPerNode int

	// NICBandwidth is the effective injection bandwidth per node in
	// bytes/second; NICLatency is the per-message latency in seconds.
	NICBandwidth float64
	NICLatency   float64

	// MemBandwidth is the per-node bandwidth of memory-backed files
	// (/dev/shm), used by I/O path switching.
	MemBandwidth float64

	// FlopRate is the per-process compute rate in FLOP/s, used to charge
	// time for application compute phases.
	FlopRate float64

	// Noise is the relative standard deviation of run-to-run variation
	// applied multiplicatively to phase durations (Cori is a volatile
	// shared platform; the paper averages 3 runs to mitigate it).
	Noise float64

	// Drift, when non-nil, makes the machine time-varying: a seeded,
	// deterministic schedule of background-traffic regimes that scale the
	// effective NIC/OST/MDS rates as a function of absolute simulated time
	// (Sim.Time). Nil keeps the historical stationary machine, bit for bit.
	Drift *Drift
}

// Procs returns the total number of processes.
func (c *Cluster) Procs() int { return c.Nodes * c.ProcsPerNode }

// Validate reports configuration errors.
func (c *Cluster) Validate() error {
	if c.Nodes <= 0 || c.ProcsPerNode <= 0 {
		return fmt.Errorf("cluster: need positive Nodes/ProcsPerNode, got %d/%d", c.Nodes, c.ProcsPerNode)
	}
	for _, v := range []float64{c.NICBandwidth, c.NICLatency, c.MemBandwidth, c.FlopRate, c.Noise} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cluster: rates, latency and noise must be finite, got %v", v)
		}
	}
	if c.NICBandwidth <= 0 || c.MemBandwidth <= 0 || c.FlopRate <= 0 {
		return fmt.Errorf("cluster: bandwidths and flop rate must be positive")
	}
	if c.NICLatency < 0 || c.Noise < 0 || c.Noise > 0.5 {
		return fmt.Errorf("cluster: NICLatency must be >= 0 and Noise in [0, 0.5]")
	}
	if c.Drift != nil {
		if err := c.Drift.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CoriHaswell returns a cluster calibrated to Cori's Haswell partition with
// the given allocation (the paper's component tests use 4 nodes x 32 procs;
// the end-to-end test uses a 500-node allocation).
func CoriHaswell(nodes, procsPerNode int) *Cluster {
	return &Cluster{
		Nodes:        nodes,
		ProcsPerNode: procsPerNode,
		NICBandwidth: 1.3e9,  // effective Aries injection per node
		NICLatency:   2e-6,   // seconds
		MemBandwidth: 6.0e9,  // /dev/shm effective stream bandwidth
		FlopRate:     1.5e10, // per-process sustained
		Noise:        0.04,
	}
}

// Sim is one simulated execution context: a clock, a seeded RNG for noise,
// and the darshan report of the run.
type Sim struct {
	Cluster *Cluster
	Report  *darshan.Report

	now   float64
	epoch float64
	noise noiseSource
	rng   *rand.Rand // draws from noise
}

// NewSim returns a fresh simulation over the cluster.
func NewSim(c *Cluster, seed int64) (*Sim, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{Cluster: c, Report: darshan.NewReport()}
	s.noise.Seed(seed)
	s.rng = rand.New(&s.noise)
	return s, nil
}

// Now returns the simulated time in seconds since the start of this run.
func (s *Sim) Now() float64 { return s.now }

// SetEpoch positions the run on the machine's absolute timeline: Time
// returns epoch + Now, and the drift schedule (if any) is evaluated at
// that absolute time. Replaying a trace at the epoch of a live window
// therefore sees exactly the drift regime the live window would.
func (s *Sim) SetEpoch(t float64) {
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("cluster: SetEpoch(%v)", t))
	}
	s.epoch = t
}

// Epoch returns the absolute simulated time this run started at.
func (s *Sim) Epoch() float64 { return s.epoch }

// Time returns the absolute simulated time (epoch + Now), the timeline
// drift schedules are keyed on.
func (s *Sim) Time() float64 { return s.epoch + s.now }

// Advance moves the clock forward by d seconds (panics on negative,
// NaN, or infinite d, any of which would indicate a broken cost model).
func (s *Sim) Advance(d float64) {
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 1) {
		panic(fmt.Sprintf("cluster: Advance(%v)", d))
	}
	s.now += d
}

// Perturb applies the cluster's run-to-run noise to a duration: a
// multiplicative factor drawn from a normal distribution with the
// configured relative stddev. The factor is clamped symmetrically to
// [1-k, 1+k] with k = min(3*Noise, 0.99): three standard deviations
// keep the tails from producing negative durations while leaving the
// expected factor at exactly 1 (a one-sided clamp would inflate the
// mean, biasing every phase duration upward in proportion to Noise).
func (s *Sim) Perturb(d float64) float64 {
	if s.Cluster.Noise == 0 || d == 0 {
		return d
	}
	k := 3 * s.Cluster.Noise
	if k > 0.99 {
		k = 0.99
	}
	f := 1 + s.rng.NormFloat64()*s.Cluster.Noise
	if f < 1-k {
		f = 1 - k
	} else if f > 1+k {
		f = 1 + k
	}
	return d * f
}

// Compute charges the time for flops floating-point operations executed by
// every process in parallel and returns the elapsed seconds.
func (s *Sim) Compute(flopsPerProc float64) float64 {
	if flopsPerProc < 0 {
		panic(fmt.Sprintf("cluster: Compute(%v)", flopsPerProc))
	}
	d := s.Perturb(flopsPerProc / s.Cluster.FlopRate)
	s.Advance(d)
	return d
}

// NetworkShuffle charges the time to move totalBytes across the fabric
// between srcNodes senders and dstNodes receivers (used by two-phase
// collective buffering). The bottleneck is the smaller side's aggregate
// NIC bandwidth, plus one latency per message.
func (s *Sim) NetworkShuffle(totalBytes int64, srcNodes, dstNodes, messages int) float64 {
	if totalBytes < 0 || srcNodes <= 0 || dstNodes <= 0 || messages < 0 {
		panic(fmt.Sprintf("cluster: NetworkShuffle(%d, %d, %d, %d)", totalBytes, srcNodes, dstNodes, messages))
	}
	side := srcNodes
	if dstNodes < side {
		side = dstNodes
	}
	if side > s.Cluster.Nodes {
		side = s.Cluster.Nodes
	}
	bw := float64(side) * s.Cluster.NICBandwidth
	if dr := s.Cluster.Drift; dr != nil {
		bw *= dr.NICFactor(s.Time())
	}
	d := float64(totalBytes)/bw + float64(messages)*s.Cluster.NICLatency
	d = s.Perturb(d)
	s.Advance(d)
	return d
}

// Barrier charges a log-depth synchronization across n processes and
// returns the elapsed seconds (panics on a non-positive process count,
// which would indicate a broken cost model).
func (s *Sim) Barrier(n int) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: Barrier(%d)", n))
	}
	depth := math.Ceil(math.Log2(float64(n) + 1))
	d := depth * s.Cluster.NICLatency * 4
	s.Advance(d)
	return d
}

// Rand exposes the simulation RNG for layers that need stochastic
// decisions tied to the run seed.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Reset rewinds the simulation to a fresh run under the given seed: clock
// and epoch to zero, RNG reseeded, report counters zeroed.
// Used by stack pooling to reuse one Sim across evaluations without
// reallocating.
func (s *Sim) Reset(seed int64) {
	s.now = 0
	s.epoch = 0
	s.rng.Seed(seed)
	s.Report.Reset()
}
