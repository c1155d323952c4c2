package discovery

import (
	"strings"
	"testing"

	"tunio/internal/csrc"
)

// fig5 mirrors the structure of the paper's Figure 5 marking example: an
// application with compute-only statements interleaved with HDF5 I/O whose
// dependents (dataset_id, data_ptr) flow through assignments.
const fig5 = `
#include <hdf5.h>
#include <mpi.h>
#define STEPS 10
#define N 4096

double advance_field(double t) {
    double e = t * 0.5 + 2.0;
    return e;
}

int main(int argc, char** argv) {
    int rank;
    int nprocs;
    MPI_Init(0, 0);
    MPI_Comm_rank(0, &rank);
    MPI_Comm_size(0, &nprocs);

    double t = 0.0;
    double energy = 0.0;
    int mesh_cells = N * 8;
    double* data_ptr = (double*)malloc(N * sizeof(double));
    hsize_t dims[1] = {N};

    hid_t file_id = H5Fcreate("/scratch/out.h5", 0, 0, 0);
    hid_t space_id = H5Screate_simple(1, dims, 0);
    hid_t dataset_id = H5Dcreate(file_id, "field", 0, space_id, 0, 0, 0);

    for (int step = 0; step < STEPS; step++) {
        t = t + 0.01;
        energy = advance_field(t);
        energy = energy * 2.0;
        mesh_cells = mesh_cells + 1;
        H5Dwrite(dataset_id, 0, 0, space_id, 0, data_ptr);
    }

    if (rank == 0) {
        double checksum = energy * mesh_cells;
        printf("checksum %f\n", checksum);
    }

    H5Dclose(dataset_id);
    H5Sclose(space_id);
    H5Fclose(file_id);
    MPI_Finalize();
    return 0;
}
`

func mustDiscover(t *testing.T, src string, opts Options) *Kernel {
	t.Helper()
	k, err := Discover(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestDiscoverKeepsIOAndDependents(t *testing.T) {
	k := mustDiscover(t, fig5, Options{})
	src := k.Source
	for _, want := range []string{
		"H5Fcreate", "H5Dcreate", "H5Dwrite", "H5Dclose", "H5Fclose",
		"H5Screate_simple", "MPI_Init", "MPI_Finalize",
		"data_ptr", "dataset_id", "dims", // dependents
		"for (", // contextual parent of H5Dwrite
	} {
		if !strings.Contains(src, want) {
			t.Errorf("kernel missing %q:\n%s", want, src)
		}
	}
}

func TestDiscoverRemovesCompute(t *testing.T) {
	k := mustDiscover(t, fig5, Options{})
	src := k.Source
	for _, gone := range []string{
		"energy", "advance_field", "checksum", "mesh_cells", "printf",
	} {
		if strings.Contains(src, gone) {
			t.Errorf("kernel still contains compute element %q:\n%s", gone, src)
		}
	}
}

func TestDiscoverKernelReparses(t *testing.T) {
	k := mustDiscover(t, fig5, Options{})
	if _, err := csrc.Parse(k.Source); err != nil {
		t.Fatalf("kernel does not reparse: %v\n%s", err, k.Source)
	}
}

func TestDiscoverMarkedLines(t *testing.T) {
	k := mustDiscover(t, fig5, Options{})
	if len(k.MarkedLines) == 0 || k.TotalLines == 0 {
		t.Fatal("no marking report")
	}
	if len(k.MarkedLines) >= k.TotalLines {
		t.Fatalf("marking kept %d of %d lines, expected a reduction", len(k.MarkedLines), k.TotalLines)
	}
	for i := 1; i < len(k.MarkedLines); i++ {
		if k.MarkedLines[i] < k.MarkedLines[i-1] {
			t.Fatal("marked lines not ascending")
		}
	}
}

func TestDiscoverLoopVariableDependentsKept(t *testing.T) {
	// The for header is a dependent of the I/O call inside it; its init,
	// cond, and update reference `step`, which must survive.
	k := mustDiscover(t, fig5, Options{})
	if !strings.Contains(k.Source, "step") {
		t.Fatalf("loop variable dropped:\n%s", k.Source)
	}
}

func TestDiscoverTransitiveAssignments(t *testing.T) {
	// data_ptr flows through a second assignment; both must be kept.
	src := `
int main() {
    double* buf = (double*)malloc(100 * sizeof(double));
    double* data_ptr = buf;
    double unused = 5.0;
    unused = unused * 2.0;
    hid_t d = H5Dopen(0, "x", 0);
    H5Dwrite(d, 0, 0, 0, 0, data_ptr);
    return 0;
}
`
	k := mustDiscover(t, src, Options{})
	if !strings.Contains(k.Source, "buf") {
		t.Fatalf("transitive dependent dropped:\n%s", k.Source)
	}
	if strings.Contains(k.Source, "unused") {
		t.Fatalf("unrelated variable kept:\n%s", k.Source)
	}
}

func TestDiscoverKeepsGuardOfIO(t *testing.T) {
	src := `
int main() {
    int rank;
    MPI_Comm_rank(0, &rank);
    double waste = 1.0;
    if (rank == 0) {
        hid_t f = H5Fcreate("a.h5", 0, 0, 0);
        H5Fclose(f);
    }
    if (waste > 0) {
        waste = waste + 1.0;
    }
    return 0;
}
`
	k := mustDiscover(t, src, Options{})
	if !strings.Contains(k.Source, "if ((rank == 0))") && !strings.Contains(k.Source, "rank == 0") {
		t.Fatalf("I/O guard dropped:\n%s", k.Source)
	}
	if strings.Contains(k.Source, "waste") {
		t.Fatalf("compute guard kept:\n%s", k.Source)
	}
}

func TestDiscoverUserFunctionWithIOKept(t *testing.T) {
	src := `
void write_dump(hid_t f) {
    H5Dwrite(f, 0, 0, 0, 0, 0);
}
double compute(double x) {
    return x * 2.0;
}
int main() {
    hid_t f = H5Fcreate("a.h5", 0, 0, 0);
    double y = compute(3.0);
    write_dump(f);
    H5Fclose(f);
    return 0;
}
`
	k := mustDiscover(t, src, Options{})
	if !strings.Contains(k.Source, "write_dump") {
		t.Fatalf("I/O helper dropped:\n%s", k.Source)
	}
	if fn := k.File.Func("compute"); fn != nil {
		t.Fatal("compute-only helper kept")
	}
}

func TestDiscoverKeepFuncsOption(t *testing.T) {
	src := `
double setup(double x) {
    return x + 1.0;
}
int main() {
    double v = setup(1.0);
    hid_t f = H5Fcreate("a.h5", 0, 0, 0);
    H5Fclose(f);
    return 0;
}
`
	k := mustDiscover(t, src, Options{KeepFuncs: []string{"setup"}})
	if k.File.Func("setup") == nil {
		t.Fatalf("KeepFuncs ignored:\n%s", k.Source)
	}
}

func TestLoopReduction(t *testing.T) {
	k := mustDiscover(t, fig5, Options{LoopReduction: 0.01})
	if k.ReducedLoops != 1 {
		t.Fatalf("reduced %d loops, want 1", k.ReducedLoops)
	}
	if k.LoopScale != 100 {
		t.Fatalf("LoopScale = %v, want 100", k.LoopScale)
	}
	if !strings.Contains(k.Source, csrc.LoopReduceBuiltin) {
		t.Fatalf("builtin missing:\n%s", k.Source)
	}
}

func TestLoopReductionOnlyOutermost(t *testing.T) {
	src := `
int main() {
    hid_t d = H5Dopen(0, "x", 0);
    for (int i = 0; i < 100; i++) {
        for (int j = 0; j < 50; j++) {
            H5Dwrite(d, 0, 0, 0, 0, 0);
        }
    }
    return 0;
}
`
	k := mustDiscover(t, src, Options{LoopReduction: 0.1})
	if k.ReducedLoops != 1 {
		t.Fatalf("reduced %d loops, want only the outermost", k.ReducedLoops)
	}
	if strings.Count(k.Source, csrc.LoopReduceBuiltin) != 1 {
		t.Fatalf("builtin appears %d times:\n%s", strings.Count(k.Source, csrc.LoopReduceBuiltin), k.Source)
	}
}

func TestLoopReductionSkipsNonIOLoops(t *testing.T) {
	// After kernel reconstruction no compute loop survives anyway, but a
	// kept loop without I/O (via KeepFuncs) must not be rewritten.
	src := `
void warm(double* a) {
    for (int i = 0; i < 10; i++) {
        a[0] = a[0] + 1.0;
    }
}
int main() {
    double x[1];
    warm(x);
    hid_t f = H5Fcreate("a.h5", 0, 0, 0);
    H5Fclose(f);
    return 0;
}
`
	k := mustDiscover(t, src, Options{KeepFuncs: []string{"warm"}, LoopReduction: 0.1})
	if strings.Contains(k.Source, csrc.LoopReduceBuiltin) {
		t.Fatalf("non-I/O loop reduced:\n%s", k.Source)
	}
}

func TestLoopReductionValidation(t *testing.T) {
	if _, err := Discover(fig5, Options{LoopReduction: 1.5}); err == nil {
		t.Fatal("want error")
	}
	if _, err := Discover(fig5, Options{LoopReduction: -0.1}); err == nil {
		t.Fatal("want error")
	}
}

func TestPathSwitching(t *testing.T) {
	k := mustDiscover(t, fig5, Options{PathSwitch: true})
	if !strings.Contains(k.Source, `"/dev/shm/scratch/out.h5"`) {
		t.Fatalf("path not switched:\n%s", k.Source)
	}
}

func TestPathSwitchingRelativeAndIdempotent(t *testing.T) {
	src := `
int main() {
    hid_t a = H5Fcreate("rel.h5", 0, 0, 0);
    hid_t b = H5Fopen("/dev/shm/x.h5", 0, 0);
    H5Fclose(a);
    H5Fclose(b);
    return 0;
}
`
	k := mustDiscover(t, src, Options{PathSwitch: true})
	if !strings.Contains(k.Source, `"/dev/shm/rel.h5"`) {
		t.Fatalf("relative path not switched:\n%s", k.Source)
	}
	if strings.Contains(k.Source, "/dev/shm/dev/shm") {
		t.Fatalf("path switching not idempotent:\n%s", k.Source)
	}
}

func TestDiscoverParseError(t *testing.T) {
	if _, err := Discover("int main() {", Options{}); err == nil {
		t.Fatal("want parse error")
	}
}

func TestDiscoverNoIOYieldsEmptyMain(t *testing.T) {
	src := `
int main() {
    double x = 1.0;
    x = x * 2.0;
    return 0;
}
`
	k := mustDiscover(t, src, Options{})
	if strings.Contains(k.Source, "x = ") && strings.Contains(k.Source, "2.0") {
		t.Fatalf("compute kept in I/O-free program:\n%s", k.Source)
	}
	// main must survive with its return for compilability
	if k.File.Func("main") == nil {
		t.Fatal("main dropped")
	}
}

// A compound assignment reads what it writes: `flags |= …` keeps the
// declaration it modifies in the slice, for the bitwise and shift forms as
// for the arithmetic ones, and what feeds no I/O call still goes.
func TestDiscoverKeepsCompoundBitAssign(t *testing.T) {
	k := mustDiscover(t, `
int main() {
    int flags = 0;
    int shift = 1;
    int noise = 1;
    flags |= H5F_ACC_RDWR;
    shift <<= 2;
    flags ^= shift;
    noise &= 3;
    hid_t f = H5Fopen("/scratch/in.h5", flags, H5P_DEFAULT);
    H5Fclose(f);
    return 0;
}
`, Options{})
	for _, want := range []string{"int flags = 0", "flags |= H5F_ACC_RDWR", "int shift = 1", "shift <<= 2", "flags ^= shift"} {
		if !strings.Contains(k.Source, want) {
			t.Errorf("kernel lost %q:\n%s", want, k.Source)
		}
	}
	if strings.Contains(k.Source, "noise") {
		t.Errorf("kernel kept a variable no I/O call depends on:\n%s", k.Source)
	}
}
