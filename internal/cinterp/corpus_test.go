package cinterp

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tunio/internal/csrc"
	"tunio/internal/discovery"
	"tunio/internal/hdf5"
	"tunio/internal/replay"
	"tunio/internal/workload"
)

// corpusCase is one program of the differential corpus: what to run, on
// how many ranks, under which step budget.
type corpusCase struct {
	name       string
	src        string
	nodes, ppn int
	maxOps     int64
}

// corpusFlashNZB and corpusColdProgram are bench/workloads.go's flashNZB
// and coldProgram, copied: the benchmark module is frozen and nothing in
// the root module may import it.
var corpusFlashNZB = [32]int64{
	67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
	149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
}

func corpusColdProgram(shape int, u int64, procs int, path string) string {
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
		return (&workload.FLASH{Procs: procs, BlocksPerRank: 32 + u%32, NXB: 8, NYB: 8, NZB: corpusFlashNZB[u/32],
			Unknowns: 6 + 2*class, Steps: 1, ComputeFlops: 1e9, Path: path}).CSource()
	case 3:
		return (&workload.MACSio{Procs: procs, PartsPerRank: 4, PartBytes: 8 * (4*perSeg + 65536),
			Dumps: 6 + 2*class, ComputeFlops: 6e9, Path: path}).CSource()
	default:
		return (&workload.BDCATS{Procs: procs, ParticlesPerRank: 16 * perSeg, Vars: 3 + class,
			Segments: 16, ComputeFlops: 1e9, InPath: path, OutPath: path + ".out"}).CSource()
	}
}

// coldPrograms are the 20 cold_source shapes at 128 ranks, as the engine
// records them: discovered, then parsed from the kernel's printed source.
func coldPrograms(tb testing.TB) []*csrc.File {
	tb.Helper()
	progs := make([]*csrc.File, 20)
	for shape := range progs {
		var err error
		if progs[shape], err = csrc.Parse(coldKernel(tb, shape)); err != nil {
			tb.Fatal(err)
		}
	}
	return progs
}

// coldKernel is the discovered kernel of one cold_source shape, as source.
func coldKernel(tb testing.TB, shape int) string {
	tb.Helper()
	src := corpusColdProgram(shape, int64(7+389*shape)%1024, 128, fmt.Sprintf("/scratch/app%04d.h5", shape))
	k, err := discovery.Discover(src, discovery.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return k.Source
}

// corpusQuirks are small programs on the corners of the language the
// fixtures never visit — scoping, implicit declaration, lookup order,
// references, lazy arrays, user functions against builtins — observed
// through what they print and how many steps they take.
var corpusQuirks = []string{
	// block scoping, a declaration re-executed every iteration, shadowing
	`int g = 3;
int main() {
    int total = 0;
    char line[64];
    for (int i = 0; i < 4; i++) {
        int x;
        x += i + g;
        total += x;
        { int g = 10; total += g; }
    }
    int i = 7;
    while (i < 9) { int g = i; total += g; i++; }
    sprintf(line, "total %d i %d g %d", total, i, g);
    printf(line);
    return 0;
}`,
	// assignment to an undeclared name declares it in the innermost block;
	// an unreachable read of an undeclared name never fails
	`int main() {
    char line[64];
    n = 5;
    for (k = 0; k < 3; k++) { m = k * 2; n += m; }
    if (n < 0) { n = ghost + 1; }
    { inner = 9; n += inner; }
    sprintf(line, "n %d k %d", n, 0);
    printf(line);
    return 0;
}`,
	// ... and the read that is reached does
	`int main() {
    for (k = 0; k < 3; k++) { m = k; }
    int z = m + 1;
    return 0;
}`,
	// locals before globals before constants; a global shadows a constant
	`int H5P_DEFAULT = 41;
int width = 2;
int area(int width, int h) { return width * h; }
int main() {
    char line[64];
    int a = area(3, 4) + width + H5P_DEFAULT + H5F_ACC_RDWR;
    int NULL = 6;
    sprintf(line, "a %d null %d", a, NULL);
    printf(line);
    return 0;
}`,
	// a user function shadows a builtin; an unknown callee fails only when called
	`double sqrt(double x) { return x + 1.0; }
int dsname(int i) { return i * 2; }
int main() {
    char line[64];
    int r = 0;
    if (r == 1) { r = no_such_function(r); }
    sprintf(line, "%g %d", sqrt(8.0), dsname(21));
    printf(line);
    return 0;
}`,
	`int main() { int r = 2; r = no_such_function(r + 1); return 0; }`,
	// references: &x, *p, out-parameters, arrays shared by reference, lazy arrays
	`int counts[6];
void bump(int *p, int by) { *p = *p + by; }
void poke(int *a, int i, int v) { a[i] = v; }
int sum(int *a, int n) { int s = 0; for (int i = 0; i < n; i++) { s += a[i]; } return s; }
int main() {
    char line[96];
    int x = 1;
    int *p = &x;
    bump(p, 4);
    bump(&x, 2);
    int v[8];
    poke(v, 3, 7);
    v[2] = 5;
    int w[3] = {1, 2, 3};
    poke(w, 0, 9);
    double d[4];
    poke(counts, 5, 1);
    double* buf = (double*)malloc(64 * sizeof(double));
    buf[3] = 2.5;
    sprintf(line, "x %d v %d w %d d %g c %d b %d", x, sum(v, 8), sum(w, 3), d[1] + 0.5, counts[5], buf != 0);
    printf(line);
    return 0;
}`,
	// recursion, early return, exit from a callee, arguments short and long
	`int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
int pick(int a, int b, int c) { return a * 100 + b * 10 + c; }
void quit(int code) { if (code > 0) { exit(code); } }
int main() {
    char line[64];
    sprintf(line, "fib %d pick %d %d", fib(12), pick(1, 2), pick(1, 2, 3, 4));
    printf(line);
    quit(0);
    quit(3);
    printf("not reached");
    return 0;
}`,
	// operators, casts, short-circuit, compound assignment, continue and break
	`int main() {
    char line[96];
    int a = 7;
    double f = 2.5;
    int n = 0;
    for (int i = 0; i < 10; i++) {
        if (i % 2 == 0) { continue; }
        if (i > 7) { break; }
        n += i;
    }
    a *= 3; a -= 1; a /= 2; a %= 7;
    f *= 2; f += a;
    int b = (a << 3 | 5) & 62 ^ 9;
    int c = !a || (a > 2 && f < 100.0);
    int q = (int)(f / 2) + (int)sizeof(double) + -a + ~b;
    if (a != 0 && 10 / a > 0) { n++; }
    sprintf(line, "%d %d %g %d %d %d", n, a, f, b, c, q);
    printf(line);
    return 0;
}`,
	// run-time failures keep their messages
	`int main() { int a[4]; int i = 2; a[i * 3] = 1; return 0; }`,
	`int main() { int z = 0; int r = 10 / z; return 0; }`,
	`int main() { int s = 3; s[1] = 2; return 0; }`,
	`int main() { int x = 3; int y = *x; return 0; }`,
	// what the resolver has to get right because the tree walk looked names
	// up as it went: declarations behind a short-circuit or made by a loop's
	// post statement, globals a function reads while they initialise,
	// redeclaration, a stray break in a callee, argument lists short and
	// long, what each builtin evaluates and when it complains

	// short-circuit guarded implicit declaration via &
	`void set(int *p) { *p = 7; }
int one(int *p) { *p = 7; return 1; }
int main() { char line[64]; int a = 0; int r = a && one(&k); sprintf(line, "%d", k); printf(line); return 0; }`,
	`int one(int *p) { *p = 7; return 1; }
int main() { char line[64]; int a = 1; int r = a && one(&k); sprintf(line, "%d %d", k, r); printf(line); return 0; }`,
	// for post declares, cond/body read later
	`int main() { char line[64]; int s = 0; for (n = 0; n < 3 || k < 5; k++) { n = n + 1; s += n; } sprintf(line, "%d", s); printf(line); return 0; }`,
	`int main() { char line[64]; int s = 0; for (n = 0; n < 6; j++) { n = n + 1; if (n > 2) { s += j; } } sprintf(line, "%d", s); printf(line); return 0; }`,
	`int main() { char line[64]; int s = 0; for (n = 0; n < 4; j++) { n = n + 1; j = 5; s += j; } sprintf(line, "%d", s); printf(line); return 0; }`,
	`int f() { b = 9; return b + 1; }
int a = f();
int b = 3;
int main() { char line[64]; sprintf(line, "%d %d", a, b); printf(line); return 0; }`,
	`int f() { return 4; }
int a = f();
int b = a + 1;
int g() { return a + b; }
int main() { char line[64]; sprintf(line, "%d %d %d", a, b, g()); printf(line); return 0; }`,
	// redeclaration in the same block, refs to old slot
	`int main() { char line[64]; int x = 1; int *p = &x; int x = 2; *p = 5; sprintf(line, "%d", x); printf(line); return 0; }`,
	`int main() { char line[64]; int x = 1; { int x = x + 1; sprintf(line, "%d", x); printf(line); } return 0; }`,
	// implicit then declared
	`int main() { char line[64]; k = 1; int k = k + 1; sprintf(line, "%d", k); printf(line); return 0; }`,
	// stray break/continue in callee
	`void b() { break; }
int main() { char line[64]; int i; for (i = 0; i < 5; i++) { if (i == 2) { b(); } } sprintf(line, "%d", i); printf(line); return 0; }`,
	`void c() { continue; }
int main() { char line[64]; int s = 0; for (int i = 0; i < 5; i++) { if (i == 2) { c(); } s += i; } sprintf(line, "%d", s); printf(line); return 0; }`,
	`int main() { break; return 0; }`,
	`int main() { continue; }`,
	// return in loops, nested
	`int f(int n) { for (int i = 0; i < n; i++) { while (1) { if (i == 3) { return i * 10; } break; } } return -1; }
int main() { char line[64]; sprintf(line, "%d %d", f(2), f(9)); printf(line); return 0; }`,
	// void return value used; missing args
	`void v() { return; }
int m(int a, int b) { return a + b; }
int main() { char line[64]; int x = v(); sprintf(line, "%d %d", x, m(4)); printf(line); return 0; }`,
	// duplicate functions, duplicate params
	`int f() { return 1; }
int f() { return 2; }
int g(int a, int a) { return a; }
int main() { char line[64]; sprintf(line, "%d %d", f(), g(3, 4)); printf(line); return 0; }`,
	// unnamed params
	`int f(int, int b) { return b; }
int main() { char line[64]; sprintf(line, "%d", f(3, 4)); printf(line); return 0; }`,
	// ++ on floats, buf, refs; compound on arrays
	`int main() { char line[64]; double d = 1.5; d++; d--; d++; int *p = (int*)malloc(16); p++; int q = p != 0; sprintf(line, "%g %d", d, q); printf(line); return 0; }`,
	// arrays: init list longer/shorter than length, non-const length
	`int main() { char line[64]; int n = 3; int a[n] = {1, 2, 3, 4, 5}; int b[4] = {7}; int c[2] = {1, 2, 3}; sprintf(line, "%d %d %d %d", a[2], b[0], b[3], c[1]); printf(line); return 0; }`,
	`int main() { int a[2] = {1, 2}; int x = a[2]; return 0; }`,
	`int main() { char line[64]; int keep = 0; for (int i = 0; i < 3; i++) { int a[2] = {i, i * 2}; a[0] += 1; keep += a[0] + a[1]; } sprintf(line, "%d", keep); printf(line); return 0; }`,
	// array passed to function & modified, ref to element
	`void z(int *a) { a[0] = 9; }
void w(int *p) { *p = 8; }
int main() { char line[64]; int a[3] = {1, 2, 3}; z(a); w(&a[1]); int *q = &a[2]; *q = 7; sprintf(line, "%d %d %d", a[0], a[1], a[2]); printf(line); return 0; }`,
	// sprintf family arg errors and quirks
	`int main() { char b[8]; sprintf(b); return 0; }`,
	`int main() { char b[8]; snprintf(b, 4); return 0; }`,
	`int main() { char b[8]; strncpy(b, "abcdef"); return 0; }`,
	`int main() { char b[8]; char line[64]; strcpy(b, "ab", ghost); strcat(b, "cd"); strncpy(line, b, 3, ghost); printf(line); int n = snprintf(line, 3, "%d", 12345); printf(line); sprintf(line, "%d", n); printf(line); return 0; }`,
	`int main() { sprintf(3, "x"); return 0; }`,
	`int main() { char b[8]; sprintf(b, 5); return 0; }`,
	// MPI_Init args not evaluated
	`int main() { MPI_Init(ghost, 1/0); MPI_Finalize(ghost); return 0; }`,
	`int main() { int r; MPI_Comm_rank(MPI_COMM_WORLD, r); return 0; }`,
	// unknown function args not evaluated; H5Pset_ unknown evaluated
	`int main() { nosuch(1/0); return 0; }`,
	`int main() { H5Pset_foo(1/0); return 0; }`,
	`int main() { H5Pset_(1); return 0; }`,
	`int main() { char line[64]; int r = H5Pset_alignment(1, 2, 3) + free(0) + H5Gclose(1) + H5Awrite(2) + H5Aclose(3); sprintf(line, "%d", r); printf(line); return 0; }`,
	// cast quirks, sizeof
	`int main() { char line[64]; double d = (double)7 / 2; int i = (int)d; long p = (long*)5; sprintf(line, "%g %d %d %d", d, i, p, sizeof(int) + sizeof(char*) + sizeof(hsize_t)); printf(line); return 0; }`,
	// constant folding with errors stays at run time, unreachable
	`int main() { char line[64]; int a = 0; if (a) { a = 1 / 0; } a = 5 % 3 + (2 << 3) - (7 & 3) + (1 || 1 / 0) + (0 && 1 / 0); sprintf(line, "%d", a); printf(line); return 0; }`,
	`int main() { int a = 5 % 0; return 0; }`,
	`int main() { double a = 5.0 / 0; return 0; }`,
	`int main() { double a = 5.0 % 2; return 0; }`,
	// string truthiness & comparisons
	`int main() { char line[64]; char *s = "x"; char *e = ""; int r = (s && 1) + (e || 0) * 10 + !s * 100; sprintf(line, "%d", r); printf(line); return 0; }`,
	// index on buf read; deref buf
	`int main() { char line[64]; double *b = (double*)malloc(8); int x = b[2]; int y = *b; b[1] = 3; *b = 4; sprintf(line, "%d %d", x, y); printf(line); return 0; }`,
	// lookups of constants shadowed after use
	`int main() { char line[64]; int a = H5F_ACC_RDWR; int H5F_ACC_RDWR = 9; sprintf(line, "%d %d", a, H5F_ACC_RDWR); printf(line); return 0; }`,
	// implicit declared in sprintf dst and & inside loops
	`int main() { for (int i = 0; i < 2; i++) { sprintf(path, "p%d", i); printf(path); MPI_Comm_rank(MPI_COMM_WORLD, &me); } return 0; }`,
	`int main() { for (int i = 0; i < 2; i++) { if (i == 1) { printf(path); } sprintf(path, "p%d", i); } return 0; }`,
	// while cond with implicit via &
	`int take(int *p) { *p = *p + 1; return *p < 4; }
int main() { char line[64]; int s = 0; while (take(&c)) { s += c; } sprintf(line, "%d %d", s, c); printf(line); return 0; }`,
	// deep but bounded recursion
	`int d(int n) { if (n == 0) { return 0; } return 1 + d(n - 1); }
int main() { char line[64]; sprintf(line, "%d", d(500)); printf(line); return 0; }`,
	// rank-divergent I/O on a strided selection of ranks
	`int main(int argc, char** argv) {
    int rank;
    int nprocs;
    MPI_Init(0, 0);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &nprocs);
    hid_t file = H5Fcreate("/scratch/quirk.h5", H5F_ACC_TRUNC, H5P_DEFAULT, H5P_DEFAULT);
    hsize_t dims[1] = {0};
    dims[0] = nprocs * 512;
    hid_t sp = H5Screate_simple(1, dims, NULL);
    hid_t d = H5Dcreate(file, "x", H5T_NATIVE_DOUBLE, sp, H5P_DEFAULT, H5P_DEFAULT, H5P_DEFAULT);
    for (int step = 0; step < 3; step++) {
        if (rank % 2 == step % 2) {
            hsize_t start[1] = {0};
            hsize_t count[1] = {512};
            start[0] = rank * 512;
            H5Sselect_hyperslab(sp, H5S_SELECT_SET, start, NULL, count, NULL);
            H5Dwrite(d, H5T_NATIVE_DOUBLE, H5S_ALL, sp, H5P_DEFAULT, 0);
        }
        MPI_Barrier(MPI_COMM_WORLD);
    }
    H5Dclose(d);
    H5Sclose(sp);
    H5Fclose(file);
    MPI_Finalize();
    return 0;
}`,
}

// corpus is the seeded, deterministic set of programs corpus.golden holds
// a line for: the five workloads' C forms and their discovered kernels on
// 1×4 and 4×32 (and loop-reduced on 1×4), the 20 cold_source shapes, the
// quirks, the runaways, and 2400 literal-edit scripts over all of the
// small ones under FuzzRun's budget.
func corpus(tb testing.TB) []corpusCase {
	tb.Helper()
	const full = 50_000_000
	var cases []corpusCase
	var small []string
	for _, name := range []string{"vpic", "hacc", "flash", "bdcats", "macsio"} {
		for _, shape := range [][2]int{{1, 4}, {4, 32}} {
			w, err := workload.ByName(name, shape[0]*shape[1])
			if err != nil {
				tb.Fatal(err)
			}
			src := w.(workload.HasCSource).CSource()
			k, err := discovery.Discover(src, discovery.Options{})
			if err != nil {
				tb.Fatal(err)
			}
			tag := fmt.Sprintf("%s/%dx%d", name, shape[0], shape[1])
			cases = append(cases,
				corpusCase{tag + "/source", src, shape[0], shape[1], full},
				corpusCase{tag + "/kernel", k.Source, shape[0], shape[1], full})
			if shape[1] == 4 {
				small = append(small, src)
				r, err := discovery.Discover(src, discovery.Options{LoopReduction: 0.5})
				if err != nil {
					tb.Fatal(err)
				}
				cases = append(cases, corpusCase{tag + "/reduced", r.Source, 1, 4, full})
			}
		}
	}
	for shape := 0; shape < 20; shape++ {
		cases = append(cases, corpusCase{fmt.Sprintf("cold/%02d", shape), coldKernel(tb, shape), 4, 32, full})
	}
	small = append(small, runawayEmptyFor, runawayArrays)
	for i, src := range small[5:] {
		cases = append(cases, corpusCase{fmt.Sprintf("runaway/%d", i), src, 1, 1, 100_000})
	}
	for i, src := range corpusQuirks {
		cases = append(cases, corpusCase{fmt.Sprintf("quirk/%02d", i), src, 1, 4, full})
	}
	small = append(small, corpusQuirks...)

	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 2400; i++ {
		script := make([]byte, 2*(1+rng.Intn(4)))
		rng.Read(script)
		k := i % len(small)
		cases = append(cases, corpusCase{fmt.Sprintf("edit/%04d/%02d/%x", i, k, script), editLiterals(small[k], script), 1, 4, 20_000})
	}
	return cases
}

// record records what run does on a planning library of nprocs ranks, as
// tuner.ResolveKernel records a kernel.
func record(nprocs int, run func(lib *hdf5.Library) error) (*replay.Trace, error) {
	lib, err := hdf5.NewPlanner(hdf5.DefaultConfig(), nprocs)
	if err != nil {
		return nil, err
	}
	return replay.RecordFunc(&workload.Stack{Lib: lib}, func(st *workload.Stack) error { return run(st.Lib) })
}

// corpusLine is what the interpreter makes of one case: the key of the
// trace it records, rank 0's step count, the loop scale and a hash of rank
// 0's output — or the error, word for word.
func corpusLine(tb testing.TB, c corpusCase) string {
	tb.Helper()
	prog, err := csrc.Parse(c.src)
	if err != nil {
		return "parse: " + err.Error()
	}
	var res *Result
	trace, err := record(c.nodes*c.ppn, func(lib *hdf5.Library) (err error) {
		res, err = run(prog, lib, c.maxOps)
		return err
	})
	if err != nil {
		return "error: " + err.Error()
	}
	out := fnv.New32a()
	for _, s := range res.Output {
		fmt.Fprintf(out, "%q", s)
	}
	return fmt.Sprintf("%s steps=%d scale=%g out=%08x", replay.TraceKey(trace), rankSteps(prog, 0, c.nodes*c.ppn, c.maxOps), res.LoopScale, out.Sum32())
}

const corpusGolden = "testdata/corpus.golden"

// TestCorpusGolden holds the interpreter to what the tree walk it replaced
// made of every program of the corpus: corpus.golden was written by the
// parent commit named in its header, the last to walk the csrc tree, and
// has been edited since only where EXPERIMENTS lists a deliberate fix.
func TestCorpusGolden(t *testing.T) {
	f, err := os.Open(filepath.FromSlash(corpusGolden))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, line, ok := strings.Cut(sc.Text(), "\t"); ok && !strings.HasPrefix(name, "#") {
			want[name] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cases := corpus(t)
	if len(want) != len(cases) {
		t.Errorf("%s has %d lines, the corpus %d programs", corpusGolden, len(want), len(cases))
	}
	bad := 0
	for _, c := range cases {
		if got := corpusLine(t, c); got != want[c.name] {
			if bad++; bad <= 10 {
				t.Errorf("%s:\n got %s\nwant %s\n%s", c.name, got, want[c.name], c.src)
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more", bad-10)
	}
}
