package analysis

import (
	"sort"
	"testing"
)

// reachingLines runs reaching definitions and returns the source lines of
// defs of v reaching the statement at line.
func reachingLines(t *testing.T, src string, line int, v string) []int {
	t.Helper()
	fn := mustFunc(t, mustParse(t, src), "main")
	rd := NewReachingDefs(BuildCFG(fn))
	var lines []int
	for _, d := range rd.Reaching(stmtAt(t, fn, line), v) {
		lines = append(lines, d.Base().Pos)
	}
	sort.Ints(lines)
	return lines
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReachingDefs(t *testing.T) {
	cases := []struct {
		name string
		src  string
		line int
		v    string
		want []int
	}{
		{
			name: "straight line kill",
			src: `int main() {
    int a = 1;
    a = 2;
    return a;
}`,
			line: 4, v: "a", want: []int{3},
		},
		{
			name: "branch merges both defs",
			src: `int main() {
    int a = 1;
    if (a > 0) {
        a = 2;
    } else {
        a = 3;
    }
    return a;
}`,
			line: 8, v: "a", want: []int{4, 6},
		},
		{
			name: "if without else keeps incoming def",
			src: `int main() {
    int a = 1;
    if (a > 0) {
        a = 2;
    }
    return a;
}`,
			line: 6, v: "a", want: []int{2, 4},
		},
		{
			name: "loop body def flows around back edge",
			src: `int main() {
    int s = 0;
    for (int i = 0; i < 4; i++) {
        s = s + i;
    }
    return s;
}`,
			line: 4, v: "s", want: []int{2, 4},
		},
		{
			name: "weak def does not kill",
			src: `int main() {
    int a[4];
    a[0] = 1;
    a[1] = 2;
    return a[0];
}`,
			line: 5, v: "a", want: []int{2, 3, 4},
		},
		{
			name: "out-arg is a weak def",
			src: `int main() {
    int rank = 0;
    MPI_Comm_rank(0, &rank);
    return rank;
}`,
			line: 4, v: "rank", want: []int{2, 3},
		},
		{
			name: "def after break does not reach loop exit use",
			src: `int main() {
    int a = 1;
    while (a < 10) {
        break;
        a = 99;
    }
    return a;
}`,
			line: 7, v: "a", want: []int{2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := reachingLines(t, tc.src, tc.line, tc.v)
			if !eqInts(got, tc.want) {
				t.Errorf("defs of %q reaching line %d = %v, want %v", tc.v, tc.line, got, tc.want)
			}
		})
	}
}

func TestSummarize(t *testing.T) {
	src := `int g;

double pure_helper(double x) {
    double y = x * 2;
    return y;
}

void writes_global(int v) {
    g = v;
}

void does_io(int n) {
    fwrite(&n, 4, 1, 0);
}

void calls_io(int n) {
    does_io(n);
}

void calls_pointer(int fread) {
    fread(1);
}

int main() {
    double d = pure_helper(2.0);
    writes_global(1);
    calls_io(3);
    return 0;
}`
	f := mustParse(t, src)
	sums := Summarize(f, DefaultIsIOCall)

	check := func(name string, pure, io, wg, unknown bool) {
		t.Helper()
		s := sums[name]
		if s == nil {
			t.Fatalf("no summary for %q", name)
		}
		if s.Pure() != pure || s.PerformsIO != io || s.WritesGlobals != wg || s.CallsUnknown != unknown {
			t.Errorf("%s: got pure=%v io=%v writesGlobals=%v unknown=%v, want %v %v %v %v",
				name, s.Pure(), s.PerformsIO, s.WritesGlobals, s.CallsUnknown, pure, io, wg, unknown)
		}
	}
	check("pure_helper", true, false, false, false)
	check("writes_global", false, false, true, false)
	check("does_io", false, true, false, false)
	check("calls_io", false, true, false, false)      // transitive
	check("calls_pointer", false, false, false, true) // shadowed fread is unknown, not I/O
	check("main", false, true, true, false)           // transitive union over defined callees
}

func TestStmtDefUse(t *testing.T) {
	src := `int main() {
    int a = 1;
    int b[4];
    b[a] = a + 2;
    a += 3;
    MPI_Comm_rank(0, &a);
    return b[0];
}`
	fn := mustFunc(t, mustParse(t, src), "main")

	du := StmtDefUse(stmtAt(t, fn, 4)) // b[a] = a + 2
	if len(du.Defs) != 1 || du.Defs[0].Var != "b" || du.Defs[0].Strong {
		t.Errorf("array store: want weak def of b, got %+v", du.Defs)
	}
	uses := map[string]bool{}
	for _, u := range du.Uses {
		uses[u] = true
	}
	if !uses["a"] || !uses["b"] {
		t.Errorf("array store should use subscript and base, got %v", du.Uses)
	}

	du = StmtDefUse(stmtAt(t, fn, 5)) // a += 3
	if len(du.Defs) != 1 || du.Defs[0].Var != "a" || !du.Defs[0].Strong {
		t.Errorf("compound assign: want strong def of a, got %+v", du.Defs)
	}
	if len(du.Uses) != 1 || du.Uses[0] != "a" {
		t.Errorf("compound assign reads prior value, got uses %v", du.Uses)
	}

	du = StmtDefUse(stmtAt(t, fn, 6)) // MPI_Comm_rank(0, &a)
	found := false
	for _, d := range du.Defs {
		if d.Var == "a" && !d.Strong {
			found = true
			if d.Arg {
				t.Errorf("&a out-arg must not be marked conjectural, got %+v", d)
			}
		}
	}
	if !found {
		t.Errorf("&a out-arg should be a weak def, got %+v", du.Defs)
	}
}

// Bare pointer/array arguments of unknown calls are conjectured weak
// writes (sprintf(name, ...) fills name), but builtins known not to write
// their arguments produce no defs at all.
func TestStmtDefUseBareCallArgs(t *testing.T) {
	src := `int main() {
    char name[64];
    sprintf(name, "run%d", 3);
    printf(name);
    return 0;
}`
	fn := mustFunc(t, mustParse(t, src), "main")

	du := StmtDefUse(stmtAt(t, fn, 3)) // sprintf(name, ...)
	if len(du.Defs) != 1 || du.Defs[0].Var != "name" || du.Defs[0].Strong || !du.Defs[0].Arg {
		t.Errorf("sprintf(name): want conjectured weak def of name, got %+v", du.Defs)
	}

	du = StmtDefUse(stmtAt(t, fn, 4)) // printf(name)
	if len(du.Defs) != 0 {
		t.Errorf("printf is a known builtin; want no defs, got %+v", du.Defs)
	}
}
