package tuner

import (
	"testing"

	"tunio/internal/analysis"
	"tunio/internal/csrc"
	"tunio/internal/replay"
	"tunio/internal/workload"
)

// Rank-divergent programs for TestTraceKeysPinned: the orders below are
// decided by the interpreter's arrival rule, not by the program text.
const (
	// Only the lower half of the ranks creates and writes the dataset.
	divergentSubset = `
int main() {
    int rank;
    int nprocs;
    MPI_Init(0, 0);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &nprocs);
    hid_t file = H5Fcreate("/scratch/subset.h5", H5F_ACC_TRUNC, H5P_DEFAULT, H5P_DEFAULT);
    if (rank < nprocs / 2) {
        hsize_t dims[1] = {0};
        dims[0] = (nprocs / 2) * 512;
        hid_t sp = H5Screate_simple(1, dims, NULL);
        hsize_t start[1] = {0};
        hsize_t count[1] = {512};
        start[0] = rank * 512;
        H5Sselect_hyperslab(sp, H5S_SELECT_SET, start, NULL, count, NULL);
        hid_t d = H5Dcreate(file, "half", H5T_NATIVE_DOUBLE, sp, H5P_DEFAULT, H5P_DEFAULT, H5P_DEFAULT);
        H5Dwrite(d, H5T_NATIVE_DOUBLE, H5S_ALL, sp, H5P_DEFAULT, 0);
        H5Dclose(d);
        H5Sclose(sp);
    }
    compute_flops(1000000.0);
    H5Fclose(file);
    MPI_Finalize();
    return 0;
}
`
	// Everyone creates five datasets (shared ids 4..12); then even ranks
	// write the first (id 4) and odd ranks the fourth (id 10) in the same
	// round, twice. Both groups are ready at once and the key order
	// "H5Dwrite:10" < "H5Dwrite:4" puts the odd ranks' phase first.
	divergentOddEven = `
int main() {
    int rank;
    int nprocs;
    MPI_Init(0, 0);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &nprocs);
    hid_t file = H5Fcreate("/scratch/oddeven.h5", H5F_ACC_TRUNC, H5P_DEFAULT, H5P_DEFAULT);
    hsize_t dims[1] = {0};
    dims[0] = nprocs * 256;
    hid_t sp = H5Screate_simple(1, dims, NULL);
    hid_t ds[5] = {0, 0, 0, 0, 0};
    for (int i = 0; i < 5; i++) {
        ds[i] = H5Dcreate(file, dsname(i), H5T_NATIVE_DOUBLE, sp, H5P_DEFAULT, H5P_DEFAULT, H5P_DEFAULT);
    }
    hsize_t start[1] = {0};
    hsize_t count[1] = {256};
    start[0] = rank * 256;
    H5Sselect_hyperslab(sp, H5S_SELECT_SET, start, NULL, count, NULL);
    hid_t mine = ds[0];
    if (rank % 2 == 1) {
        mine = ds[3];
    }
    for (int step = 0; step < 2; step++) {
        H5Dwrite(mine, H5T_NATIVE_DOUBLE, H5S_ALL, sp, H5P_DEFAULT, 0);
    }
    for (int i = 0; i < 5; i++) {
        H5Dclose(ds[i]);
    }
    H5Sclose(sp);
    H5Fclose(file);
    MPI_Finalize();
    return 0;
}
`
	// The last rank returns before the fully-collective close: the others
	// close the file among themselves.
	divergentEarlyReturn = `
int main() {
    int rank;
    int nprocs;
    MPI_Init(0, 0);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &nprocs);
    hid_t file = H5Fcreate("/scratch/early.h5", H5F_ACC_TRUNC, H5P_DEFAULT, H5P_DEFAULT);
    hsize_t dims[1] = {0};
    dims[0] = nprocs * 128;
    hid_t sp = H5Screate_simple(1, dims, NULL);
    hsize_t start[1] = {0};
    hsize_t count[1] = {128};
    start[0] = rank * 128;
    H5Sselect_hyperslab(sp, H5S_SELECT_SET, start, NULL, count, NULL);
    hid_t d = H5Dcreate(file, "v", H5T_NATIVE_DOUBLE, sp, H5P_DEFAULT, H5P_DEFAULT, H5P_DEFAULT);
    H5Dwrite(d, H5T_NATIVE_DOUBLE, H5S_ALL, sp, H5P_DEFAULT, 0);
    if (rank == nprocs - 1) {
        return 0;
    }
    H5Dread(d, H5T_NATIVE_DOUBLE, H5S_ALL, sp, H5P_DEFAULT, 0);
    H5Dclose(d);
    H5Fclose(file);
    MPI_Finalize();
    return 0;
}
`
	// Every rank changes or closes what a call used right after the call:
	// the plist's chunk after the first create, the selection after the
	// first write, the dataspace after the second. The interpreter logs a
	// call and executes it later, so the log must not see those edits.
	reuseAfterCall = `
int main() {
    int rank;
    int nprocs;
    MPI_Init(0, 0);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &nprocs);
    hid_t file = H5Fcreate("/scratch/reuse.h5", H5F_ACC_TRUNC, H5P_DEFAULT, H5P_DEFAULT);
    hsize_t dims[2] = {0, 64};
    dims[0] = nprocs * 4;
    hid_t sp = H5Screate_simple(2, dims, NULL);
    hid_t dcpl = H5Pcreate(H5P_DATASET_CREATE);
    hsize_t chunk[2] = {1, 64};
    H5Pset_chunk(dcpl, 2, chunk);
    hid_t a = H5Dcreate(file, "a", H5T_NATIVE_DOUBLE, sp, H5P_DEFAULT, dcpl, H5P_DEFAULT);
    chunk[0] = 2;
    H5Pset_chunk(dcpl, 2, chunk);
    hid_t b = H5Dcreate(file, "b", H5T_NATIVE_DOUBLE, sp, H5P_DEFAULT, dcpl, H5P_DEFAULT);
    H5Pclose(dcpl);
    hsize_t start[2] = {0, 0};
    hsize_t count[2] = {1, 64};
    start[0] = rank;
    H5Sselect_hyperslab(sp, H5S_SELECT_SET, start, NULL, count, NULL);
    H5Dwrite(a, H5T_NATIVE_DOUBLE, H5S_ALL, sp, H5P_DEFAULT, 0);
    start[0] = nprocs + 2 * rank;
    count[0] = 2;
    H5Sselect_hyperslab(sp, H5S_SELECT_SET, start, NULL, count, NULL);
    H5Dwrite(b, H5T_NATIVE_DOUBLE, H5S_ALL, sp, H5P_DEFAULT, 0);
    H5Sclose(sp);
    H5Dclose(a);
    H5Dclose(b);
    H5Fclose(file);
    MPI_Finalize();
    return 0;
}
`
)

// exitInCallee ends every rank inside a helper function, before the file is
// closed: exit() unwinds the callee and main alike, so the trace stops at
// the create.
const exitInCallee = `
void bail() { exit(0); }
int main() {
    MPI_Init(0, 0);
    hid_t file = H5Fcreate("/scratch/x.h5", H5F_ACC_TRUNC, H5P_DEFAULT, H5P_DEFAULT);
    bail();
    H5Fclose(file);
    MPI_Finalize();
    return 0;
}
`

// pinnedShapes are the clusters the pinned programs are recorded on: 4, 32
// and 128 processes.
var pinnedShapes = []struct{ nodes, ppn int }{{1, 4}, {1, 32}, {4, 32}}

// pinnedProgram is one program of the pinned corpus: its source at a
// process count, and its trace key at each of pinnedShapes.
type pinnedProgram struct {
	name string
	src  func(procs int) string
	keys [3]string
}

func pinnedPrograms(t *testing.T) []pinnedProgram {
	fixture := func(name string) func(procs int) string {
		return func(procs int) string {
			w, err := workload.ByName(name, procs)
			if err != nil {
				t.Fatal(err)
			}
			shrinkWorkload(w)
			return w.(workload.HasCSource).CSource()
		}
	}
	literal := func(src string) func(int) string { return func(int) string { return src } }
	return []pinnedProgram{
		{"vpic", fixture("vpic"), [3]string{"trace:204341ceec8a4757", "trace:d5daed746c62368a", "trace:14a9562720ac77b0"}},
		{"hacc", fixture("hacc"), [3]string{"trace:fe30be323716e87b", "trace:9f0f2f4dbb6d0b9a", "trace:d3c6888469a735f0"}},
		{"flash", fixture("flash"), [3]string{"trace:b1b8bf07b3c2d88e", "trace:e3e23044e7b93eec", "trace:30b2d69fece6181e"}},
		{"bdcats", fixture("bdcats"), [3]string{"trace:50d0c23e5805d9c8", "trace:a6afb641685eacfa", "trace:c06a0794cb7eff58"}},
		{"macsio", fixture("macsio"), [3]string{"trace:a085c0fd8dfd7e84", "trace:81bbc87a3a34e659", "trace:558d3322a0e32681"}},
		{"rank-subset", literal(divergentSubset), [3]string{"trace:ae2af2ad64c9690a", "trace:0868d75fb5018160", "trace:b203c79ab18a755f"}},
		{"odd-even", literal(divergentOddEven), [3]string{"trace:068200304ad00c06", "trace:3bdab1a20ca50ed6", "trace:89aa554d6b3cae58"}},
		{"reuse-after-call", literal(reuseAfterCall), [3]string{"trace:8c0a3cb500c3b083", "trace:a258d694e104f7f8", "trace:fdfc65c8c5d881fe"}},
		{"early-return", literal(divergentEarlyReturn), [3]string{"trace:c0660971bf2c1974", "trace:28fa46473aa379e4", "trace:348da59f9916c759"}},
	}
}

// resolveSource parses the program and resolves it the way a job does, into
// private caches.
func resolveSource(t *testing.T, name, src string, nodes, ppn int) (*csrc.File, *Kernel) {
	t.Helper()
	prog, err := csrc.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	k, err := ResolveKernel(KernelSource{Prog: prog, Nprocs: nodes * ppn})
	if err != nil {
		t.Fatalf("%s at %dx%d: %v", name, nodes, ppn, err)
	}
	return prog, k
}

// TestTraceKeysPinned pins what the interpreter records and a job reports:
// the kernel hash of each workload's C form at three process counts, of
// three programs whose ranks diverge, and of one that edits what a call
// used right after the call. The literals were taken at commit cb0601c,
// from an interpreter that ran every rank on its own goroutine and served
// the calls as they arrived: they are what makes "the same phases in the
// same order" checkable. Any change to the arrival rule, the key order or
// the shared handle numbering moves one of them.
func TestTraceKeysPinned(t *testing.T) {
	for _, tc := range pinnedPrograms(t) {
		for i, sh := range pinnedShapes {
			procs := sh.nodes * sh.ppn
			_, k := resolveSource(t, tc.name, tc.src(procs), sh.nodes, sh.ppn)
			if k.Hash != tc.keys[i] || replay.TraceKey(k.Trace) != tc.keys[i] {
				t.Errorf("%s at %d procs: kernel hash %s, trace key %s, pinned %s", tc.name, procs, k.Hash, replay.TraceKey(k.Trace), tc.keys[i])
			}
		}
	}
}

// TestCrossValidatePinnedTraces keeps the static signature honest where it
// is an oracle and not a gate: for every pinned program, and one that exits
// inside a callee, the signature is not Exact or replay.CrossValidate
// accepts the recorded trace. A disagreement is a finding about the
// analyser, never a failed job. The one known finding is listed: the
// signature walker does not follow a dataset handle chosen by rank, and
// the day it does this test says so.
func TestCrossValidatePinnedTraces(t *testing.T) {
	knownMismatch := map[string]bool{"odd-even": true}
	programs := append(pinnedPrograms(t), pinnedProgram{name: "exit-in-callee", src: func(int) string { return exitInCallee }})
	exact := 0
	for _, tc := range programs {
		for _, sh := range pinnedShapes {
			procs := sh.nodes * sh.ppn
			prog, k := resolveSource(t, tc.name, tc.src(procs), sh.nodes, sh.ppn)
			sig := analysis.ComputeSignature(prog, analysis.SignatureOptions{})
			if !sig.Exact {
				t.Logf("%s at %d procs: signature not exact, nothing to check", tc.name, procs)
				continue
			}
			cs, err := sig.Concrete(map[string]int64{"nprocs": int64(procs)})
			if err != nil {
				t.Errorf("%s at %d procs: exact signature does not concretise: %v", tc.name, procs, err)
				continue
			}
			exact++
			err = replay.CrossValidate(k.Trace, cs)
			switch {
			case knownMismatch[tc.name] && err == nil:
				t.Errorf("%s at %d procs: the signature now agrees with the trace: take it off the known-mismatch list", tc.name, procs)
			case !knownMismatch[tc.name] && err != nil:
				t.Errorf("%s at %d procs: exact signature contradicts the recorded trace: %v", tc.name, procs, err)
			}
			if tc.name == "exit-in-callee" && len(k.Trace.Events) != 2 {
				t.Errorf("exit-in-callee at %d procs: %d events recorded, want the init barrier and the create", procs, len(k.Trace.Events))
			}
		}
	}
	// The five fixtures are exact at every shape; fewer means the oracle
	// has stopped checking anything.
	if exact < 15 {
		t.Fatalf("only %d exact signatures over the corpus", exact)
	}
}
