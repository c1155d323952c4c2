package discovery

import (
	"strings"
	"testing"

	"tunio/internal/analysis"
	"tunio/internal/csrc"
	"tunio/internal/workload"
)

// hasWarning reports whether a kernel carries a transform warning with the
// given code.
func hasWarning(k *Kernel, code string) bool {
	for _, d := range k.Warnings {
		if d.Code == code {
			return true
		}
	}
	return false
}

// TestLoopReductionBoundMutatedWarns covers the edge case where the loop
// body mutates its own bound: the reduction still rewrites the loop, but
// the kernel carries a TR001 warning.
func TestLoopReductionBoundMutatedWarns(t *testing.T) {
	src := `int main() {
    int n = 64;
    FILE* f = fopen("d.bin", "w");
    for (int i = 0; i < n; i++) {
        fwrite(&i, 4, 1, f);
        n = n - 1;
    }
    fclose(f);
    return 0;
}`
	k, err := Discover(src, Options{LoopReduction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if k.ReducedLoops != 1 {
		t.Errorf("ReducedLoops = %d, want 1", k.ReducedLoops)
	}
	if !hasWarning(k, analysis.CodeLoopBoundMutated) {
		t.Errorf("want TR001 warning for mutated bound, got %v", k.Warnings)
	}
}

// TestLoopReductionLoopCarriedIOWarns covers a reduced loop feeding a
// value into an I/O call after it.
func TestLoopReductionLoopCarriedIOWarns(t *testing.T) {
	src := `int main() {
    int total = 0;
    FILE* f = fopen("d.bin", "w");
    for (int i = 0; i < 64; i++) {
        fwrite(&i, 4, 1, f);
        total = total + 1;
    }
    fprintf(f, "%d", total);
    fclose(f);
    return 0;
}`
	k, err := Discover(src, Options{LoopReduction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !hasWarning(k, analysis.CodeLoopCarriedIO) {
		t.Errorf("want TR002 warning for loop-carried I/O argument, got %v", k.Warnings)
	}
}

// TestLoopReductionShadowedName asserts a loop calling through a local
// named like an I/O routine is not treated as an I/O loop.
func TestLoopReductionShadowedName(t *testing.T) {
	src := `void pump(int fwrite) {
    for (int i = 0; i < 64; i++) {
        fwrite(i);
    }
}

int main() {
    FILE* f = fopen("d.bin", "w");
    fclose(f);
    return 0;
}`
	file, err := csrc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := reduceLoops(file, 0.5, isIOCall); got != 0 {
		t.Errorf("reduceLoops rewrote %d loops through a shadowed name, want 0", got)
	}
	if strings.Contains(csrc.Format(file), csrc.LoopReduceBuiltin) {
		t.Errorf("shadowed-name loop was rewritten:\n%s", csrc.Format(file))
	}
}

// TestPathSwitchComputedPath covers path switching over computed path
// expressions: the literal is switched, the computed one is left alone and
// flagged TR003.
func TestPathSwitchComputedPath(t *testing.T) {
	src := `void build_name(int n) {
    fprintf(0, "%d", n);
}

int main() {
    char name[64];
    build_name(7);
    FILE* a = fopen(name, "w");
    FILE* b = fopen("plain.bin", "w");
    fclose(a);
    fclose(b);
    return 0;
}`
	k, err := Discover(src, Options{PathSwitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(k.Source, `"/dev/shm/plain.bin"`) {
		t.Errorf("literal path not switched:\n%s", k.Source)
	}
	if !strings.Contains(k.Source, "fopen(name,") {
		t.Errorf("computed path argument should be untouched:\n%s", k.Source)
	}
	if !hasWarning(k, analysis.CodeComputedPath) {
		t.Errorf("want TR003 warning for computed path, got %v", k.Warnings)
	}
}

// TestRemoveBlindWritesAliasedRead covers the aliased-handle edge case: a
// read through a handle copy must block removal of the earlier write.
func TestRemoveBlindWritesAliasedRead(t *testing.T) {
	src := `int main() {
    hid_t d = H5Dcreate(0, "ds", 0, 0, 0);
    hid_t alias = d;
    double buf[8];
    H5Dwrite(d, 0, 0, 0, 0, buf);
    H5Dread(alias, 0, 0, 0, 0, buf);
    H5Dwrite(d, 0, 0, 0, 0, buf);
    H5Dclose(d);
    return 0;
}`
	k, err := Discover(src, Options{RemoveBlindWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if k.RemovedBlindWrites != 0 {
		t.Errorf("removed %d writes; the aliased read makes the first write visible", k.RemovedBlindWrites)
	}
	if got := strings.Count(k.Source, "H5Dwrite"); got != 2 {
		t.Errorf("kernel has %d H5Dwrite calls, want 2:\n%s", got, k.Source)
	}
}

// TestRemoveBlindWritesEscapeBarrier covers a handle escaping into a user
// function between writes: removal is blocked and TR004 is raised.
func TestRemoveBlindWritesEscapeBarrier(t *testing.T) {
	src := `void touch(hid_t h) {
    H5Dread(h, 0, 0, 0, 0, 0);
}

int main() {
    hid_t d = H5Dcreate(0, "ds", 0, 0, 0);
    double buf[8];
    H5Dwrite(d, 0, 0, 0, 0, buf);
    touch(d);
    H5Dwrite(d, 0, 0, 0, 0, buf);
    H5Dclose(d);
    return 0;
}`
	k, err := Discover(src, Options{RemoveBlindWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if k.RemovedBlindWrites != 0 {
		t.Errorf("removed %d writes; the escaping handle may be read by touch()", k.RemovedBlindWrites)
	}
	if !hasWarning(k, analysis.CodeAliasedHandle) {
		t.Errorf("want TR004 warning for escaping handle, got %v", k.Warnings)
	}
}

// TestRemoveBlindWritesStillWorks asserts the plain overwrite case is
// still elided after the alias-awareness change.
func TestRemoveBlindWritesStillWorks(t *testing.T) {
	src := `int main() {
    hid_t d = H5Dcreate(0, "ds", 0, 0, 0);
    double buf[8];
    H5Dwrite(d, 0, 0, 0, 0, buf);
    H5Dwrite(d, 0, 0, 0, 0, buf);
    H5Dclose(d);
    return 0;
}`
	k, err := Discover(src, Options{RemoveBlindWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if k.RemovedBlindWrites != 1 {
		t.Errorf("RemovedBlindWrites = %d, want 1", k.RemovedBlindWrites)
	}
	if got := strings.Count(k.Source, "H5Dwrite"); got != 1 {
		t.Errorf("kernel has %d H5Dwrite calls, want 1:\n%s", got, k.Source)
	}
}

// TestNoTransformsNoWarnings asserts warnings stay empty when no transform
// is enabled, even for sources that would trip every check.
func TestNoTransformsNoWarnings(t *testing.T) {
	src := `int main() {
    int n = 64;
    FILE* f = fopen("d.bin", "w");
    for (int i = 0; i < n; i++) {
        fwrite(&i, 4, 1, f);
        n = n - 1;
    }
    fclose(f);
    return 0;
}`
	k, err := Discover(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Warnings) != 0 {
		t.Errorf("no transforms enabled but Warnings = %v", k.Warnings)
	}
}

// TestFixtureCorpusDiscoversClean covers what a job with Discover set is
// admitted on: an error-severity warning refuses it at submit. Every
// fixture's C form, at the four size classes and both process counts the
// repository benchmark generates its cold programs at, discovers with no
// warning at all.
func TestFixtureCorpusDiscoversClean(t *testing.T) {
	const path = "/scratch/app.h5"
	for _, procs := range []int{8, 128} {
		for class := int64(0); class < 4; class++ {
			for _, u := range []int64{0, 1023} {
				perSeg := 16384 + 8192*class + u
				for _, w := range []workload.HasCSource{
					&workload.VPIC{Procs: procs, ParticlesPerRank: 16 * perSeg, Vars: int(6 + 2*(class%2)),
						Steps: int(1 + class/2), Segments: 16, ComputeFlops: 2e9, Path: path},
					&workload.HACC{Procs: procs, ParticlesPerRank: 16 * perSeg, Steps: int(1 + class/2),
						Segments: 16, ComputeFlops: 1e9, Path: path},
					&workload.FLASH{Procs: procs, BlocksPerRank: 32 + u%32, NXB: 8, NYB: 8, NZB: 67 + u/8,
						Unknowns: int(6 + 2*class), Steps: 1, ComputeFlops: 1e9, Path: path},
					&workload.MACSio{Procs: procs, PartsPerRank: 4, PartBytes: 8 * (4*perSeg + 65536),
						Dumps: int(6 + 2*class), ComputeFlops: 6e9, Path: path},
					&workload.BDCATS{Procs: procs, ParticlesPerRank: 16 * perSeg, Vars: int(3 + class),
						Segments: 16, ComputeFlops: 1e9, InPath: path, OutPath: path + ".out"},
				} {
					k, err := Discover(w.CSource(), Options{})
					if err != nil {
						t.Fatalf("%T class %d unit %d at %d procs: %v", w, class, u, procs, err)
					}
					if len(k.Warnings) != 0 {
						t.Errorf("%T class %d unit %d at %d procs: Warnings = %v", w, class, u, procs, k.Warnings)
					}
				}
			}
		}
	}
}
