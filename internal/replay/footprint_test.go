package replay

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"strconv"
	"testing"

	"tunio/internal/cinterp"
	"tunio/internal/cluster"
	"tunio/internal/csrc"
	"tunio/internal/hdf5"
	"tunio/internal/params"
	"tunio/internal/workload"
)

// recordSource records a C program on a 2x8 cluster under the defaults.
func recordSource(t *testing.T, name, src string) *Trace {
	t.Helper()
	prog, err := csrc.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	st, err := workload.BuildStack(cluster.CoriHaswell(2, 8), params.DefaultAssignment(params.Space()).Settings(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RecordFunc(st, func(st *workload.Stack) error {
		_, err := cinterp.Run(prog, st.Lib)
		return err
	})
	if err != nil {
		t.Fatalf("%s: record: %v", name, err)
	}
	return tr
}

// coldFixture is the C source of a bench/ cold job (bench/workloads.go,
// coldProgram with the per-job unit at zero): application shape%5 at size
// class shape/5.
func coldFixture(shape, procs int) string {
	app, class := shape%5, shape/5
	perSeg := int64(16384 + 8192*class)
	const path = "/scratch/app.h5"
	switch app {
	case 0:
		return (&workload.VPIC{Procs: procs, ParticlesPerRank: 16 * perSeg, Vars: 6 + 2*(class%2),
			Steps: 1 + class/2, Segments: 16, ComputeFlops: 2e9, Path: path}).CSource()
	case 1:
		return (&workload.HACC{Procs: procs, ParticlesPerRank: 16 * perSeg, Steps: 1 + class/2,
			Segments: 16, ComputeFlops: 1e9, Path: path}).CSource()
	case 2:
		return (&workload.FLASH{Procs: procs, BlocksPerRank: 32, NXB: 8, NYB: 8, NZB: 67,
			Unknowns: 6 + 2*class, Steps: 1, ComputeFlops: 1e9, Path: path}).CSource()
	case 3:
		return (&workload.MACSio{Procs: procs, PartsPerRank: 4, PartBytes: 8 * (4*perSeg + 65536),
			Dumps: 6 + 2*class, ComputeFlops: 6e9, Path: path}).CSource()
	default:
		return (&workload.BDCATS{Procs: procs, ParticlesPerRank: 16 * perSeg, Vars: 3 + class,
			Segments: 16, ComputeFlops: 1e9, InPath: path, OutPath: path + ".out"}).CSource()
	}
}

// pinnedDivergentPrograms reads the four rank-divergent programs that
// internal/tuner's TestTraceKeysPinned pins out of that test's source, so
// the two corpora cannot drift apart.
func pinnedDivergentPrograms(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../tuner/tracekeys_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"divergentSubset": true, "divergentOddEven": true, "divergentEarlyReturn": true, "reuseAfterCall": true}
	out := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 || !want[vs.Names[0].Name] {
			return true
		}
		lit, ok := vs.Values[0].(*ast.BasicLit)
		if !ok {
			t.Fatalf("%s is not a literal", vs.Names[0].Name)
		}
		src, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		out[vs.Names[0].Name] = src
		return true
	})
	if len(out) != len(want) {
		t.Fatalf("found %d of the %d pinned divergent programs", len(out), len(want))
	}
	return out
}

// chunkedAndContiguous writes one chunked dataset, whose partial chunk
// writes consult the chunk cache, and one contiguous dataset by column
// blocks — many segments per rank, which consult the sieve buffer.
const chunkedAndContiguous = `
int main() {
    int rank;
    int nprocs;
    MPI_Init(0, 0);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &nprocs);
    hid_t file = H5Fcreate("/scratch/mixed.h5", H5F_ACC_TRUNC, H5P_DEFAULT, H5P_DEFAULT);
    hsize_t dims[2] = {512, 0};
    dims[1] = nprocs * 64;
    hid_t sp = H5Screate_simple(2, dims, NULL);
    hsize_t start[2] = {0, 0};
    hsize_t count[2] = {512, 64};
    start[1] = rank * 64;
    H5Sselect_hyperslab(sp, H5S_SELECT_SET, start, NULL, count, NULL);
    hid_t dcpl = H5Pcreate(H5P_DATASET_CREATE);
    hsize_t chunk[2] = {128, 96};
    H5Pset_chunk(dcpl, 2, chunk);
    hid_t tiled = H5Dcreate(file, "tiled", H5T_NATIVE_DOUBLE, sp, H5P_DEFAULT, dcpl, H5P_DEFAULT);
    hid_t flat = H5Dcreate(file, "flat", H5T_NATIVE_DOUBLE, sp, H5P_DEFAULT, H5P_DEFAULT, H5P_DEFAULT);
    for (int step = 0; step < 2; step++) {
        H5Dwrite(tiled, H5T_NATIVE_DOUBLE, H5S_ALL, sp, H5P_DEFAULT, 0);
        H5Dwrite(flat, H5T_NATIVE_DOUBLE, H5S_ALL, sp, H5P_DEFAULT, 0);
    }
    H5Dread(tiled, H5T_NATIVE_DOUBLE, H5S_ALL, sp, H5P_DEFAULT, 0);
    H5Dclose(tiled);
    H5Dclose(flat);
    H5Pclose(dcpl);
    H5Sclose(sp);
    H5Fclose(file);
    MPI_Finalize();
    return 0;
}
`

// TestPlanFootprintIsSound is the proof behind keying stage 1 by what the
// kernel reads. For every generated program of the benchmark's cold jobs
// (five applications, four size classes), the rank-divergent programs of
// TestTraceKeysPinned and a program that mixes a chunked and a contiguous
// dataset, over each plan-stage parameter's extreme values and 32 seeded
// projections: every build reports the footprint the default build
// reported, and the plan built under the blanked projection — unread
// parameters at their first value, the configuration the cache key names —
// equals the plan built under the full one.
func TestPlanFootprintIsSound(t *testing.T) {
	const procs = 16
	sources := map[string]string{"chunked+contiguous": chunkedAndContiguous}
	for shape := 0; shape < 20; shape++ {
		sources[fmt.Sprintf("cold shape %d", shape)] = coldFixture(shape, procs)
	}
	for name, src := range pinnedDivergentPrograms(t) {
		sources[name] = src
	}

	space := params.Space()
	var projections []*params.Assignment
	for _, name := range params.PlanStage {
		last := len(space[params.Index(space, name)].Values) - 1
		projections = append(projections, mutate(t, map[string]int{name: 0}), mutate(t, map[string]int{name: last}))
	}
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 32; i++ {
		pairs := map[string]int{}
		for _, name := range params.PlanStage {
			pairs[name] = r.Intn(len(space[params.Index(space, name)].Values))
		}
		projections = append(projections, mutate(t, pairs))
	}

	build := func(name string, tr *Trace, a *params.Assignment) *StackPlan {
		sp, err := BuildStackPlan(tr, a.Settings().HDF5)
		if err != nil {
			t.Fatalf("%s under %v: %v", name, a, err)
		}
		return sp
	}
	footprints := map[hdf5.PlanReads]int{}
	for name, src := range sources {
		tr := recordSource(t, name, src)
		reads := build(name, tr, params.DefaultAssignment(space)).Reads
		footprints[reads]++
		blanked := map[string]*StackPlan{} // by blanked key: many projections share one
		for _, a := range projections {
			sp := build(name, tr, a)
			if sp.Reads != reads {
				t.Fatalf("%s under %v: footprint %03b, under the defaults %03b", name, a, sp.Reads, reads)
			}
			key := a.AppendPlanProjection(nil, reads)
			ref := blanked[string(key)]
			if ref == nil {
				genome := a.Genome()
				for i, pname := range params.PlanStage {
					genome[params.Index(space, pname)] = int(key[i])
				}
				b, err := params.FromGenome(space, genome)
				if err != nil {
					t.Fatal(err)
				}
				ref = build(name, tr, b)
				blanked[string(key)] = ref
			}
			if !sp.equal(ref) {
				t.Fatalf("%s under %v (footprint %03b): the plan differs from the blanked projection's", name, a, reads)
			}
		}
	}
	// The corpus must exercise the blanking, in each direction it goes.
	all := hdf5.ReadsAlignment | hdf5.ReadsSieveBuf | hdf5.ReadsChunkCache
	if footprints[all] == 0 || footprints[all&^hdf5.ReadsChunkCache] == 0 || footprints[all&^hdf5.ReadsSieveBuf] == 0 {
		t.Fatalf("footprints %v: want kernels that read everything, no chunk cache, and no sieve buffer", footprints)
	}
}
