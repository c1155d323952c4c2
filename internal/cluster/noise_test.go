package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// sameStream draws n variates of mixed kinds from both generators and fails
// at the first that differs. The kinds interleave because NormFloat64 draws
// a varying number of words, so each draw count is reached at many phases.
func sameStream(t testing.TB, label string, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0, 3:
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("%s: draw %d: NormFloat64 %v, math/rand %v", label, i, g, w)
			}
		case 1:
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("%s: draw %d: Float64 %v, math/rand %v", label, i, g, w)
			}
		case 2:
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("%s: draw %d: Uint64 %v, math/rand %v", label, i, g, w)
			}
		case 4:
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("%s: draw %d: Int63 %v, math/rand %v", label, i, g, w)
			}
		}
	}
}

// noiseDrawCounts straddle the points where the lazy seeding changes
// behaviour: the tap (273), the last unfilled word (334), a full turn of the
// register (607) and several turns.
var noiseDrawCounts = []int{0, 1, 2, 50, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1214, 5000}

// TestNoiseSourceMatchesMathRand is what pins noiseSource, its power table
// and the copied additive constants: on edge seeds and a few hundred random
// ones, for every draw count above, the variates a rand.Rand over it yields
// are those of rand.New(rand.NewSource(seed)) — and again after a re-Seed
// that finds the state partly filled, partly overwritten.
func TestNoiseSourceMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, 2, m, -m, m - 1, m + 1, 2 * m, -2 * m, 3*m + 7, 89482311, 1 << 40, -(1 << 62),
		1<<63 - 1, -1 << 63}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	src := new(noiseSource)
	got := rand.New(src)
	for i, seed := range seeds {
		counts := noiseDrawCounts
		if i >= 40 { // the random tail: one random count each
			counts = []int{r.Intn(1500)}
		}
		for _, n := range counts {
			// One source serves the whole test, as one Sim's serves every
			// run of a pooled stack: each Seed meets what the last left.
			got.Seed(seed)
			sameStream(t, "seeded", got, rand.New(rand.NewSource(seed)), n)
		}
	}
}

// TestSimResetRestartsNoise pins Sim.Reset to the stream of a fresh Sim,
// whatever the previous run drew.
func TestSimResetRestartsNoise(t *testing.T) {
	c := CoriHaswell(2, 4)
	pooled, err := NewSim(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range noiseDrawCounts {
		seed := int64(1000 + i)
		pooled.Reset(seed)
		fresh, err := NewSim(c, seed)
		if err != nil {
			t.Fatal(err)
		}
		want := rand.New(rand.NewSource(seed))
		for j := 0; j < n; j++ {
			d, f := pooled.Perturb(1), fresh.Perturb(1)
			if d != f {
				t.Fatalf("seed %d draw %d: reset sim perturbs to %v, fresh sim to %v", seed, j, d, f)
			}
			if w := perturbWith(c, want); d != w {
				t.Fatalf("seed %d draw %d: perturbed to %v, over math/rand %v", seed, j, d, w)
			}
		}
	}
}

// perturbWith is Sim.Perturb(1) over the given generator.
func perturbWith(c *Cluster, r *rand.Rand) float64 {
	f := 1 + r.NormFloat64()*c.Noise
	if k := 3 * c.Noise; f < 1-k {
		f = 1 - k
	} else if f > 1+k {
		f = 1 + k
	}
	return f
}

// FuzzNoiseSource is the differential test with the fuzzer choosing the seed
// and how far to draw, before and after a re-Seed.
func FuzzNoiseSource(f *testing.F) {
	for _, n := range noiseDrawCounts {
		f.Add(int64(n)*7919-3, uint16(n))
	}
	f.Add(int64(1<<31-1), uint16(700))
	f.Add(int64(-1<<63), uint16(334))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		got := rand.New(new(noiseSource))
		got.Seed(seed)
		sameStream(t, "first seeding", got, rand.New(rand.NewSource(seed)), int(n)%2048)
		got.Seed(^seed)
		sameStream(t, "second seeding", got, rand.New(rand.NewSource(^seed)), int(n)%2048)
	})
}

// BenchmarkSimReset is what a replayed run pays for its noise stream: a
// Reset and the run's draws (a warm replay of a small kernel draws a few
// dozen, a large collective one a few thousand). math/rand's own source
// costs the 0draws case about 12 µs whatever follows.
func BenchmarkSimReset(b *testing.B) {
	for _, draws := range []int{0, 50, 600, 2000} {
		b.Run(fmt.Sprintf("%ddraws", draws), func(b *testing.B) {
			s, err := NewSim(CoriHaswell(2, 8), 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset(int64(i))
				for j := 0; j < draws; j++ {
					s.Advance(s.Perturb(1e-3))
				}
			}
		})
	}
}
