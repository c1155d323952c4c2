package tuner

import (
	"fmt"
	"math/rand"
	"testing"

	"tunio/internal/cinterp"
	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/discovery"
	"tunio/internal/params"
	"tunio/internal/replay"
	"tunio/internal/workload"
)

// coldFlashNZB and coldProgram are bench/workloads.go's flashNZB and
// coldProgram, copied as internal/cinterp's corpus copies them: the
// benchmark module is frozen and nothing in the root module may import it.
var coldFlashNZB = [32]int64{
	67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
	149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
}

func coldProgram(shape int, u int64, procs int, path string) string {
	app, class := shape%5, shape/5
	perSeg := int64(16384+8192*class) + u
	switch app {
	case 0:
		return (&workload.VPIC{Procs: procs, ParticlesPerRank: 16 * perSeg, Vars: 6 + 2*(class%2),
			Steps: 1 + class/2, Segments: 16, ComputeFlops: 2e9, Path: path}).CSource()
	case 1:
		return (&workload.HACC{Procs: procs, ParticlesPerRank: 16 * perSeg, Steps: 1 + class/2,
			Segments: 16, ComputeFlops: 1e9, Path: path}).CSource()
	case 2:
		return (&workload.FLASH{Procs: procs, BlocksPerRank: 32 + u%32, NXB: 8, NYB: 8, NZB: coldFlashNZB[u/32],
			Unknowns: 6 + 2*class, Steps: 1, ComputeFlops: 1e9, Path: path}).CSource()
	case 3:
		return (&workload.MACSio{Procs: procs, PartsPerRank: 4, PartBytes: 8 * (4*perSeg + 65536),
			Dumps: 6 + 2*class, ComputeFlops: 6e9, Path: path}).CSource()
	default:
		return (&workload.BDCATS{Procs: procs, ParticlesPerRank: 16 * perSeg, Vars: 3 + class,
			Segments: 16, ComputeFlops: 1e9, InPath: path, OutPath: path + ".out"}).CSource()
	}
}

// TestRecordingNeedsNoMachine is why ResolveKernel records on a planning
// library: for the six Go models on 1×4 and 4×32 and for the discovered
// kernels of the 20 cold_source shapes on 4×32, the trace a planner records
// is the trace a live stack records — under the default configuration on
// two seeds and under six seeded random configurations. A trace depends on
// the kernel and the process count, so that is all a KernelSource names.
func TestRecordingNeedsNoMachine(t *testing.T) {
	space := params.Space()
	rng := rand.New(rand.NewSource(25))
	type run struct {
		settings params.StackSettings
		seed     int64
	}
	runs := []run{{params.DefaultAssignment(space).Settings(), 1}, {params.DefaultAssignment(space).Settings(), 99}}
	for i := 0; i < 6; i++ {
		genome := make([]int, len(space))
		for j, p := range space {
			genome[j] = rng.Intn(len(p.Values))
		}
		a, err := params.FromGenome(space, genome)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{a.Settings(), int64(2 + i)})
	}

	type kernel struct {
		name string
		c    *cluster.Cluster
		src  KernelSource
	}
	var kernels []kernel
	for _, shape := range [][2]int{{1, 4}, {4, 32}} {
		c := cluster.CoriHaswell(shape[0], shape[1])
		for _, name := range []string{"vpic", "hacc", "flash", "bdcats", "macsio", "ior"} {
			w, err := workload.ByName(name, c.Procs())
			if err != nil {
				t.Fatal(err)
			}
			shrinkWorkload(w)
			kernels = append(kernels, kernel{fmt.Sprintf("%s/%dx%d", name, shape[0], shape[1]), c, KernelSource{Workload: w}})
		}
	}
	c := cluster.CoriHaswell(4, 32)
	for shape := 0; shape < 20; shape++ {
		k, err := discovery.Discover(coldProgram(shape, int64(7+389*shape)%1024, c.Procs(), fmt.Sprintf("/scratch/app%04d.h5", shape)), discovery.Options{})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := csrc.Parse(k.Source)
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, kernel{fmt.Sprintf("cold/%02d", shape), c, KernelSource{Prog: prog}})
	}

	for _, k := range kernels {
		k.src.Nprocs = k.c.Procs()
		planned, err := ResolveKernel(k.src)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		for i, r := range runs {
			st, err := workload.BuildStack(k.c, r.settings, r.seed)
			if err != nil {
				t.Fatal(err)
			}
			live, err := replay.RecordFunc(st, func(st *workload.Stack) error {
				if k.src.Prog != nil {
					_, err := cinterp.Run(k.src.Prog, st.Lib)
					return err
				}
				return k.src.Workload.Run(st)
			})
			if err != nil {
				t.Fatalf("%s run %d: live recording: %v", k.name, i, err)
			}
			if got := replay.TraceKey(live); got != planned.Hash {
				t.Errorf("%s run %d (seed %d): live trace %s, planned %s", k.name, i, r.seed, got, planned.Hash)
			}
		}
	}
}
