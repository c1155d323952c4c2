package cinterp

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// runOutput executes a single-rank program and returns rank 0's printf
// strings (the language tests observe behavior through output).
func runOutput(t *testing.T, src string) []string {
	t.Helper()
	lib := newLib(t, 1, 1)
	res, err := Run(parseProg(t, src), lib)
	if err != nil {
		t.Fatal(err)
	}
	return res.Output
}

func TestLangWhileAndBreak(t *testing.T) {
	out := runOutput(t, `
int main() {
    int i = 0;
    while (1) {
        i = i + 1;
        if (i >= 5) {
            break;
        }
    }
    if (i == 5) {
        printf("five\n");
    }
    return 0;
}
`)
	if len(out) != 1 || !strings.Contains(out[0], "five") {
		t.Fatalf("output = %v", out)
	}
}

func TestLangContinue(t *testing.T) {
	out := runOutput(t, `
int main() {
    int evens = 0;
    for (int i = 0; i < 10; i++) {
        if (i % 2 == 1) {
            continue;
        }
        evens = evens + 1;
    }
    if (evens == 5) {
        printf("ok\n");
    }
    return 0;
}
`)
	if len(out) != 1 {
		t.Fatalf("output = %v", out)
	}
}

func TestLangUserFunctions(t *testing.T) {
	out := runOutput(t, `
long fib(long n) {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}
int main() {
    if (fib(10) == 55) {
        printf("fib ok\n");
    }
    return 0;
}
`)
	if len(out) != 1 {
		t.Fatalf("recursion failed: %v", out)
	}
}

func TestLangGlobals(t *testing.T) {
	out := runOutput(t, `
int counter = 40;
int bump(int by) {
    counter = counter + by;
    return counter;
}
int main() {
    bump(2);
    if (counter == 42) {
        printf("global ok\n");
    }
    return 0;
}
`)
	if len(out) != 1 {
		t.Fatalf("globals failed: %v", out)
	}
}

func TestLangArraysAndArithmetic(t *testing.T) {
	out := runOutput(t, `
int main() {
    double acc[4] = {1.5, 2.5, 3.0, 0.0};
    acc[3] = acc[0] + acc[1] * 2.0;
    int mask = (1 << 3) | 1;
    long big = 1000000 * 1000;
    if (acc[3] == 6.5 && mask == 9 && big == 1000000000) {
        printf("math ok\n");
    }
    return 0;
}
`)
	if len(out) != 1 {
		t.Fatalf("arithmetic failed: %v", out)
	}
}

func TestLangCastsAndSizeof(t *testing.T) {
	out := runOutput(t, `
int main() {
    double x = 7.9;
    int trunc = (int)x;
    if (trunc == 7 && sizeof(double) == 8 && sizeof(int) == 4 && sizeof(char) == 1) {
        printf("casts ok\n");
    }
    return 0;
}
`)
	if len(out) != 1 {
		t.Fatalf("casts failed: %v", out)
	}
}

func TestLangSqrtBuiltin(t *testing.T) {
	out := runOutput(t, `
int main() {
    double r = sqrt(144.0);
    if (r == 12.0) {
        printf("sqrt ok\n");
    }
    return 0;
}
`)
	if len(out) != 1 {
		t.Fatalf("sqrt failed: %v", out)
	}
}

func TestLangCharLiterals(t *testing.T) {
	out := runOutput(t, `
int main() {
    char c = 'A';
    if (c == 65) {
        printf("char ok\n");
    }
    return 0;
}
`)
	if len(out) != 1 {
		t.Fatalf("char failed: %v", out)
	}
}

func TestLangShortCircuit(t *testing.T) {
	// The right side of && must not evaluate when the left is false:
	// 1/zero would error otherwise.
	out := runOutput(t, `
int main() {
    int zero = 0;
    if (zero != 0 && 1 / zero > 0) {
        printf("bad\n");
    } else {
        printf("short ok\n");
    }
    return 0;
}
`)
	if len(out) != 1 || !strings.Contains(out[0], "short ok") {
		t.Fatalf("short circuit failed: %v", out)
	}
}

// Programs that do unbounded work in as few statements as the language
// allows: a loop with nothing to evaluate but its back-edge, and a loop
// whose one statement zeroes 2^20 elements.
const (
	runawayEmptyFor = `int main() { for (;;) {} return 0; }`
	runawayArrays   = `
int main() {
    for (int i = 0; i < 1000000; i++) {
        double a[1048576];
    }
    return 0;
}
`
)

// The step budget ends every runaway, within a deadline and with nothing
// left running: a rank that hangs pins the worker that records it.
func TestLangRunawayLoopCaught(t *testing.T) {
	before := runtime.NumGoroutine()
	for name, src := range map[string]string{
		"while(1)":        `int main() { while (1) { int x = 1; } return 0; }`,
		"for(;;){}":       runawayEmptyFor,
		"array in a loop": runawayArrays,
	} {
		prog, lib := parseProg(t, src), newLib(t, 1, 1)
		done := make(chan error, 1)
		go func() {
			_, err := run(prog, lib, 100_000)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "exceeded 100000 operations") {
				t.Errorf("%s: runaway not caught: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still running after 10s under a 100k-step budget", name)
		}
	}
	for i := 0; runtime.NumGoroutine() > before && i < 1000; i++ {
		time.Sleep(time.Millisecond) // the deadline's goroutines have sent and are returning
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after", before, after)
	}
}

func TestLangNestedLoops(t *testing.T) {
	out := runOutput(t, `
int main() {
    int total = 0;
    for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 3; j++) {
            total = total + i * j;
        }
    }
    if (total == 18) {
        printf("nested ok\n");
    }
    return 0;
}
`)
	if len(out) != 1 {
		t.Fatalf("nested loops failed: %v", out)
	}
}

func TestLangElseChains(t *testing.T) {
	out := runOutput(t, `
int classify(int v) {
    if (v < 0) {
        return -1;
    } else {
        if (v == 0) {
            return 0;
        } else {
            return 1;
        }
    }
}
int main() {
    if (classify(-5) == -1 && classify(0) == 0 && classify(9) == 1) {
        printf("chains ok\n");
    }
    return 0;
}
`)
	if len(out) != 1 {
		t.Fatalf("else chains failed: %v", out)
	}
}

func TestLangBuiltinErrorPaths(t *testing.T) {
	cases := []string{
		// bad H5Screate_simple args
		`int main() { hid_t s = H5Screate_simple(1, 5, NULL); return 0; }`,
		// hyperslab on bad space
		`int main() { hsize_t a[1] = {1}; H5Sselect_hyperslab(12345, H5S_SELECT_SET, a, NULL, a, NULL); return 0; }`,
		// chunk on bad plist
		`int main() { hsize_t c[1] = {1}; H5Pset_chunk(999, 1, c); return 0; }`,
		// dataset create with bad space
		`int main() { hid_t f = H5Fcreate("/scratch/e.h5", 0, 0, 0); hid_t d = H5Dcreate(f, "x", 0, 777, 0, 0, 0); return 0; }`,
		// comm_rank without pointer
		`int main() { MPI_Comm_rank(MPI_COMM_WORLD, 5); return 0; }`,
		// negative compute
		`int main() { compute_flops(-1.0); return 0; }`,
		// fclose of bad handle
		`int main() { H5Fclose(424242); return 0; }`,
		// group on bad handle
		`int main() { hid_t g = H5Gcreate(5, "x", 0, 0, 0); return 0; }`,
		// attribute on bad handle
		`int main() { hid_t a = H5Acreate(5, "x", 0, 0, 0, 0); return 0; }`,
		// loop_reduce arg count
		`int main() { int n = __loop_reduce(10); return 0; }`,
	}
	for i, src := range cases {
		lib := newLib(t, 1, 2)
		if _, err := Run(parseProg(t, src), lib); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestLangUnknownH5PsetIgnored(t *testing.T) {
	// Tuning-property calls in source are accepted and ignored: the stack
	// configuration is injected by the tuner, not the application.
	out := runOutput(t, `
int main() {
    H5Pset_alignment(0, 0, 1048576);
    H5Pset_sieve_buf_size(0, 65536);
    printf("ignored ok\n");
    return 0;
}
`)
	if len(out) != 1 {
		t.Fatalf("H5Pset_* not tolerated: %v", out)
	}
}

func TestLangBufferSemantics(t *testing.T) {
	// malloc'd buffers accept symbolic element writes and free.
	out := runOutput(t, `
int main() {
    double* buf = (double*)malloc(64 * sizeof(double));
    buf[0] = 1.5;
    buf[63] = 2.5;
    double* alias = buf;
    free(alias);
    printf("buf ok\n");
    return 0;
}
`)
	if len(out) != 1 {
		t.Fatalf("buffer semantics failed: %v", out)
	}
}

func TestLangCalloc(t *testing.T) {
	out := runOutput(t, `
int main() {
    long* v = (long*)calloc(8, sizeof(long));
    if (v != 0) {
        printf("calloc ok\n");
    }
    return 0;
}
`)
	if len(out) != 1 {
		t.Fatalf("calloc failed: %v", out)
	}
}

// exit() ends the rank from wherever it is called, a callee included.
func TestLangExit(t *testing.T) {
	for _, src := range []string{
		`int main() { exit(0); printf("after\n"); return 7; }`,
		`void bail() { exit(0); } int main() { bail(); printf("after\n"); return 7; }`,
	} {
		if out := runOutput(t, src); len(out) != 0 {
			t.Errorf("%s\nran on past exit(): printed %q", src, out)
		}
	}
}

func TestLangSievePlistLifecycle(t *testing.T) {
	out := runOutput(t, `
int main() {
    hid_t p = H5Pcreate(H5P_DATASET_CREATE);
    hsize_t c[2] = {4, 4};
    H5Pset_chunk(p, 2, c);
    H5Pclose(p);
    hid_t s = H5Screate_simple(2, c, NULL);
    H5Sclose(s);
    printf("plist ok\n");
    return 0;
}
`)
	if len(out) != 1 {
		t.Fatalf("plist lifecycle failed: %v", out)
	}
}

func TestLangSprintfZeroPad(t *testing.T) {
	out := runOutput(t, `
int main() {
    int rank = 7;
    char fname[64];
    sprintf(fname, "out.%05d.h5", rank);
    printf(fname);
    return 0;
}
`)
	if len(out) != 1 || out[0] != "out.00007.h5" {
		t.Fatalf("zero-padded sprintf = %v, want out.00007.h5", out)
	}
}

func TestLangSprintfWidthPrecision(t *testing.T) {
	out := runOutput(t, `
int main() {
    char buf[64];
    sprintf(buf, "[%-4d|%8d|%.3d|%04x|%.2s]", 3, 1, 7, 255, "abcd");
    printf(buf);
    return 0;
}
`)
	want := "[3   |       1|007|00ff|ab]"
	if len(out) != 1 || out[0] != want {
		t.Fatalf("formatted = %v, want %q", out, want)
	}
}

func TestLangSnprintfTruncates(t *testing.T) {
	out := runOutput(t, `
int main() {
    char fname[64];
    int n = snprintf(fname, 9, "%s", "/scratch/hacc.h5");
    if (n == 16) {
        printf(fname);
    }
    return 0;
}
`)
	if len(out) != 1 || out[0] != "/scratch" {
		t.Fatalf("snprintf truncation = %v, want /scratch (with full-length return)", out)
	}
}

func TestLangStrncpy(t *testing.T) {
	out := runOutput(t, `
int main() {
    char a[64];
    char b[64];
    strncpy(a, "/scratch/file.h5", 8);
    strncpy(b, "/tmp/x.h5", 64);
    printf(a);
    printf(b);
    return 0;
}
`)
	if len(out) != 2 || out[0] != "/scratch" || out[1] != "/tmp/x.h5" {
		t.Fatalf("strncpy = %v, want [/scratch /tmp/x.h5]", out)
	}
}

// An array declared without an initialiser list stays a length until
// something reads it, and gets its elements in the variable's own slot: the
// first read may be a by-value pass to a callee, and what the callee writes
// through its copy the caller must see — before and after indexing the
// array itself. A buffer that is only ever written whole, like the path
// sprintf builds, never gets elements at all.
func TestLangLazyArray(t *testing.T) {
	out := runOutput(t, `
int counts[6];
void poke(int *a, int i, int v) {
    a[i] = v;
}
int main() {
    int v[8];
    poke(v, 3, 7);
    v[2] = 5;
    poke(v, 4, 9);
    if (v[3] == 7 && v[4] == 9 && v[2] == 5 && v[0] == 0) {
        printf("one array\n");
    }
    double d[4];
    if (d[1] + 0.5 == 0.5 && d[3] / 2 == 0.0) {
        printf("float zeros\n");
    }
    poke(counts, 5, 1);
    if (counts[5] == 1 && counts[0] == 0) {
        printf("global too\n");
    }
    char path[256];
    sprintf(path, "/scratch/run%03d.h5", 12);
    printf(path);
    return 0;
}
`)
	want := []string{"one array\n", "float zeros\n", "global too\n", "/scratch/run012.h5"}
	if len(out) != len(want) {
		t.Fatalf("output = %q, want %q", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("output = %q, want %q", out, want)
		}
	}

	prog := parseProg(t, `int main() { char path[256]; return 0; }`)
	in := newInterp(resolve(prog), 0, 1, 1<<30, newScratch())
	main := in.prog.main
	in.frame = make([]Value, main.nslots)
	if allocs := testing.AllocsPerRun(100, func() {
		if main.body(in); in.err != errReturn || in.frame[0].Kind != kUnreadInts {
			t.Fatalf("declared %+v, %v; want an array without elements", in.frame[0], in.err)
		}
		in.err = nil
	}); allocs != 0 {
		t.Fatalf("declaring an unread array allocates %v times, want 0", allocs)
	}
	if in.ops < 100*256 {
		t.Fatalf("%d steps charged in 100 runs: an unread array still costs its length", in.ops)
	}
}

// runawayRecursion never returns and spends few steps a call: what ends it
// is the depth limit, long before the Go stack under the interpreter (the
// tree walk died of that one, with a fatal error no recover catches).
const runawayRecursion = `int f(int n){ return f(n+1); } int main(){ f(0); return 0; }`

func TestLangRunawayRecursionCaught(t *testing.T) {
	for name, src := range map[string]string{
		"direct":  runawayRecursion,
		"mutual":  `int f(int n) { return g(n) + 1; } int g(int n) { return f(n + 1); } int main() { return f(0); }`,
		"in init": `int f(int n) { return f(n + 1); } int depth = f(0); int main() { return 0; }`,
	} {
		_, err := Run(parseProg(t, src), newLib(t, 1, 2))
		if err == nil || !strings.Contains(err.Error(), "exceeded 10000 nested calls") {
			t.Errorf("%s: runaway recursion not caught: %v", name, err)
		}
	}
	// Recursion that ends inside the limit is not its business.
	out := runOutput(t, `
int depth(int n) { if (n == 0) { return 0; } return 1 + depth(n - 1); }
int main() {
    char line[32];
    sprintf(line, "%d", depth(9000));
    printf(line);
    return 0;
}
`)
	if len(out) != 1 || out[0] != "9000" {
		t.Fatalf("output = %q, want 9000", out)
	}
}

// infiniteFlops overflows a double to +Inf, which passed compute_flops'
// sign check and panicked the simulation under the merge, taking down the
// process that ran the job. A count no clock can advance by is refused
// where the program asks for it, as a negative one is.
const infiniteFlops = `int main() { compute_flops(1e308 * 10.0); return 0; }`

func TestLangNonFiniteComputeRefused(t *testing.T) {
	for src, want := range map[string]string{
		infiniteFlops: "cinterp: compute_flops(+Inf)",
		`int main() { compute_flops(-1e308 * 10.0); return 0; }`:                        "cinterp: compute_flops(-Inf)",
		`int main() { double inf = 1e308 * 10.0; compute_flops(inf - inf); return 0; }`: "cinterp: compute_flops(NaN)",
	} {
		_, err := Run(parseProg(t, src), newLib(t, 1, 2))
		if err == nil || err.Error() != want {
			t.Errorf("%s\n got %v, want %s", src, err, want)
		}
	}
}

// A global whose initialiser fails fails the rank, with the initialiser's
// own error: it used to be dropped, and surfaced as an undefined variable
// where the global was read, or not at all.
func TestLangGlobalInitialiserFails(t *testing.T) {
	for src, want := range map[string]string{
		`int g = 1/0; int main() { return 0; }`:                          "division by zero",
		`int g = 1/0; int main() { int x = g; return 0; }`:               "division by zero",
		`int sizes[-1]; int main() { return 0; }`:                        "array sizes has unreasonable length -1",
		`int g = later + 1; int later = 2; int main() { return 0; }`:     `undefined variable "later"`,
		`int f() { return b; } int a = f(); int b = 3; int main() { }`:   `undefined variable "b"`,
		`int f() { return nosuch(); } int a = f(); int main() { }`:       `unknown function "nosuch"`,
		`int g = 7; int h = g * 6; int main() { int x = 1 / (h - 42); }`: "division by zero",
	} {
		_, err := Run(parseProg(t, src), newLib(t, 1, 2))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s\n got %v, want %s", src, err, want)
		}
	}
}

// The five compound assignments the parser used to refuse: each is its
// binary operator applied to the variable, `<<=` a shift and not the `<` its
// first character is.
func TestLangCompoundBitAssign(t *testing.T) {
	out := runOutput(t, `
int main() {
    char line[64];
    int flags = H5F_ACC_RDONLY;
    flags |= H5F_ACC_RDWR;
    int n = 3;
    n <<= 2;
    int m = 255;
    m >>= 4;
    m &= 6;
    m ^= 1;
    int a[2] = {1, 64};
    a[1] >>= a[0];
    sprintf(line, "%d %d %d %d", flags, n, m, a[1]);
    printf(line);
    return 0;
}
`)
	if len(out) != 1 || out[0] != "2 12 7 32" {
		t.Fatalf("output = %q, want 2 12 7 32", out)
	}
}
