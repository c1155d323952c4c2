package analysis

import "testing"

// resolvePaths runs the propagation and returns call -> resolved path for
// every computed path argument it can prove.
func resolvePaths(t *testing.T, src string) map[string]string {
	t.Helper()
	p := NewStringProp(mustParse(t, src))
	out := map[string]string{}
	for _, r := range p.ResolvePathArgs() {
		out[r.Call] = r.Path
	}
	return out
}

func TestConstPropSprintfOfConstants(t *testing.T) {
	src := `const char* outdir = "/scratch";
int main() {
    char fname[256];
    sprintf(fname, "%s/%s", outdir, "vpic.h5");
    hid_t f = H5Fcreate(fname, H5F_ACC_TRUNC, H5P_DEFAULT, H5P_DEFAULT);
    H5Fclose(f);
    return 0;
}`
	got := resolvePaths(t, src)
	if got["H5Fcreate"] != "/scratch/vpic.h5" {
		t.Fatalf("H5Fcreate path = %q, want /scratch/vpic.h5 (all: %v)", got["H5Fcreate"], got)
	}
}

func TestConstPropIntFormatting(t *testing.T) {
	src := `int main() {
    int rank = 3;
    char fname[128];
    sprintf(fname, "/scratch/out.%d.h5", rank + 1);
    FILE* f = fopen(fname, "w");
    fclose(f);
    return 0;
}`
	got := resolvePaths(t, src)
	if got["fopen"] != "/scratch/out.4.h5" {
		t.Fatalf("fopen path = %q, want /scratch/out.4.h5", got["fopen"])
	}
}

// A compound assignment is its binary operator: `<<=` shifts (its first
// character alone is a comparison).
func TestConstPropCompoundShiftAndBitAssign(t *testing.T) {
	src := `int main() {
    int id = 3;
    id <<= 2;
    id |= 1;
    id ^= 8;
    id &= 7;
    id >>= 1;
    char fname[128];
    sprintf(fname, "/scratch/out.%d.h5", id);
    FILE* f = fopen(fname, "w");
    fclose(f);
    return 0;
}`
	got := resolvePaths(t, src)
	if got["fopen"] != "/scratch/out.2.h5" {
		t.Fatalf("fopen path = %q, want /scratch/out.2.h5", got["fopen"])
	}
}

func TestConstPropStrcpyStrcat(t *testing.T) {
	src := `int main() {
    char fname[128];
    strcpy(fname, "/scratch");
    strcat(fname, "/flash.h5");
    FILE* f = fopen(fname, "w");
    fclose(f);
    return 0;
}`
	got := resolvePaths(t, src)
	if got["fopen"] != "/scratch/flash.h5" {
		t.Fatalf("fopen path = %q, want /scratch/flash.h5", got["fopen"])
	}
}

func TestConstPropSnprintf(t *testing.T) {
	src := `int main() {
    char fname[128];
    snprintf(fname, 128, "%s", "/scratch/hacc.h5");
    FILE* f = fopen(fname, "w");
    fclose(f);
    return 0;
}`
	got := resolvePaths(t, src)
	if got["fopen"] != "/scratch/hacc.h5" {
		t.Fatalf("fopen path = %q, want /scratch/hacc.h5", got["fopen"])
	}
}

func TestConstPropZeroPaddedRankPath(t *testing.T) {
	src := `int main() {
    int rank = 7;
    char fname[128];
    sprintf(fname, "/scratch/out.%05d.h5", rank);
    FILE* f = fopen(fname, "w");
    fclose(f);
    return 0;
}`
	got := resolvePaths(t, src)
	if got["fopen"] != "/scratch/out.00007.h5" {
		t.Fatalf("fopen path = %q, want /scratch/out.00007.h5", got["fopen"])
	}
}

func TestConstPropSnprintfTruncates(t *testing.T) {
	src := `int main() {
    char fname[128];
    snprintf(fname, 9, "%s", "/scratch/hacc.h5");
    FILE* f = fopen(fname, "w");
    fclose(f);
    return 0;
}`
	got := resolvePaths(t, src)
	if got["fopen"] != "/scratch" {
		t.Fatalf("fopen path = %q, want the 8-byte truncation /scratch", got["fopen"])
	}
}

func TestConstPropSnprintfNonConstSizeFails(t *testing.T) {
	src := `int main(int argc) {
    char fname[128];
    snprintf(fname, argc, "%s", "/scratch/hacc.h5");
    FILE* f = fopen(fname, "w");
    fclose(f);
    return 0;
}`
	if got := resolvePaths(t, src); len(got) != 0 {
		t.Fatalf("unknown snprintf size must not resolve, got %v", got)
	}
}

func TestConstPropStrncpyFits(t *testing.T) {
	src := `int main() {
    char fname[128];
    strncpy(fname, "/scratch/bd.h5", 128);
    FILE* f = fopen(fname, "w");
    fclose(f);
    return 0;
}`
	got := resolvePaths(t, src)
	if got["fopen"] != "/scratch/bd.h5" {
		t.Fatalf("fopen path = %q, want /scratch/bd.h5", got["fopen"])
	}
}

func TestConstPropStrncpyTruncationUnproven(t *testing.T) {
	// A truncating strncpy leaves dst without a terminator — the resulting
	// path must stay unresolved rather than claim the prefix.
	src := `int main() {
    char fname[128];
    strncpy(fname, "/scratch/bdcats.h5", 8);
    FILE* f = fopen(fname, "w");
    fclose(f);
    return 0;
}`
	if got := resolvePaths(t, src); len(got) != 0 {
		t.Fatalf("truncating strncpy must not resolve, got %v", got)
	}
}

func TestConstPropStrongOverwrite(t *testing.T) {
	src := `int main() {
    char fname[128];
    sprintf(fname, "%s", "/tmp/first.h5");
    sprintf(fname, "%s", "/tmp/second.h5");
    FILE* f = fopen(fname, "w");
    fclose(f);
    return 0;
}`
	got := resolvePaths(t, src)
	if got["fopen"] != "/tmp/second.h5" {
		t.Fatalf("fopen path = %q, want the overwriting value /tmp/second.h5", got["fopen"])
	}
}

func TestConstPropBranchJoinDiffers(t *testing.T) {
	src := `int main() {
    int flag = 1;
    char fname[128];
    if (flag > 0) {
        sprintf(fname, "%s", "/tmp/a.h5");
    } else {
        sprintf(fname, "%s", "/tmp/b.h5");
    }
    FILE* f = fopen(fname, "w");
    fclose(f);
    return 0;
}`
	if got := resolvePaths(t, src); len(got) != 0 {
		t.Fatalf("differing branch constants must not resolve, got %v", got)
	}
}

func TestConstPropBranchJoinAgrees(t *testing.T) {
	src := `int main() {
    int flag = 1;
    char fname[128];
    if (flag > 0) {
        sprintf(fname, "%s", "/tmp/same.h5");
    } else {
        sprintf(fname, "%s", "/tmp/same.h5");
    }
    FILE* f = fopen(fname, "w");
    fclose(f);
    return 0;
}`
	got := resolvePaths(t, src)
	if got["fopen"] != "/tmp/same.h5" {
		t.Fatalf("agreeing branch constants should resolve, got %v", got)
	}
}

func TestConstPropLoopVariantNotResolved(t *testing.T) {
	src := `int main() {
    char fname[128];
    for (int i = 0; i < 4; i++) {
        sprintf(fname, "/tmp/out.%d", i);
        FILE* f = fopen(fname, "w");
        fclose(f);
    }
    return 0;
}`
	if got := resolvePaths(t, src); len(got) != 0 {
		t.Fatalf("loop-variant path must not resolve, got %v", got)
	}
}

func TestConstPropUnknownCallClobbers(t *testing.T) {
	src := `int main() {
    char fname[128];
    sprintf(fname, "%s", "/tmp/a.h5");
    read_name(fname);
    FILE* f = fopen(fname, "w");
    fclose(f);
    return 0;
}`
	if got := resolvePaths(t, src); len(got) != 0 {
		t.Fatalf("a bare-identifier argument to an unknown call must clobber, got %v", got)
	}
}

func TestConstPropAliasedBufferNotResolved(t *testing.T) {
	// p aliases fname; the later write through p would make fname's proven
	// constant stale, so aliased buffers never get strong updates.
	src := `int main() {
    char fname[128];
    sprintf(fname, "%s", "/tmp/a.h5");
    char* p = fname;
    sprintf(p, "%s", "/tmp/b.h5");
    FILE* f = fopen(fname, "w");
    fclose(f);
    return 0;
}`
	if got := resolvePaths(t, src); len(got) != 0 {
		t.Fatalf("copy-aliased buffer must not resolve, got %v", got)
	}
}

func TestConstPropInterproceduralReturn(t *testing.T) {
	src := `const char* base() {
    return "/scratch";
}
int main() {
    char fname[128];
    sprintf(fname, "%s/%s", base(), "vpic.h5");
    FILE* f = fopen(fname, "w");
    fclose(f);
    return 0;
}`
	got := resolvePaths(t, src)
	if got["fopen"] != "/scratch/vpic.h5" {
		t.Fatalf("return-constant helper should resolve, got %v", got)
	}
}

func TestConstPropInterproceduralParam(t *testing.T) {
	src := `void open_out(const char* dir) {
    char fname[128];
    sprintf(fname, "%s/%s", dir, "out.h5");
    FILE* f = fopen(fname, "w");
    fclose(f);
}
int main() {
    open_out("/scratch");
    return 0;
}`
	got := resolvePaths(t, src)
	if got["fopen"] != "/scratch/out.h5" {
		t.Fatalf("single-constant call-site parameter should resolve, got %v", got)
	}
}

func TestConstPropParamDiffersAcrossSites(t *testing.T) {
	src := `void open_out(const char* dir) {
    char fname[128];
    sprintf(fname, "%s/%s", dir, "out.h5");
    FILE* f = fopen(fname, "w");
    fclose(f);
}
int main() {
    open_out("/scratch");
    open_out("/tmp");
    return 0;
}`
	if got := resolvePaths(t, src); len(got) != 0 {
		t.Fatalf("differing call-site constants must not resolve, got %v", got)
	}
}

func TestConstPropUnsupportedVerbFails(t *testing.T) {
	src := `int main() {
    char fname[128];
    sprintf(fname, "/tmp/out.%f", 1.5);
    FILE* f = fopen(fname, "w");
    fclose(f);
    return 0;
}`
	if got := resolvePaths(t, src); len(got) != 0 {
		t.Fatalf("unsupported format verb must not resolve, got %v", got)
	}
}

func TestExpandFormat(t *testing.T) {
	cases := []struct {
		format string
		args   []constVal
		want   string
		ok     bool
	}{
		{"%s/%s", []constVal{strConst("/a"), strConst("b.h5")}, "/a/b.h5", true},
		{"out.%d", []constVal{intConst(7)}, "out.7", true},
		{"out.%ld", []constVal{intConst(7)}, "out.7", true},
		{"%x", []constVal{intConst(255)}, "ff", true},
		{"100%%", nil, "100%", true},
		{"%s", []constVal{bottomVal}, "", false},
		{"%s", nil, "", false},
		{"trailing%", nil, "", false},
		{"plain", nil, "plain", true},
		// width, precision, and flags
		{"out.%05d.h5", []constVal{intConst(7)}, "out.00007.h5", true},
		{"out.%05ld.h5", []constVal{intConst(42)}, "out.00042.h5", true},
		{"%8d", []constVal{intConst(1)}, "       1", true},
		{"%-4d|", []constVal{intConst(3)}, "3   |", true},
		{"%04x", []constVal{intConst(255)}, "00ff", true},
		{"%.3d", []constVal{intConst(7)}, "007", true},
		{"%05d", []constVal{intConst(-42)}, "-0042", true},
		{"%6s", []constVal{strConst("ab")}, "    ab", true},
		{"%-6s|", []constVal{strConst("ab")}, "ab    |", true},
		{"%.2s", []constVal{strConst("abcd")}, "ab", true},
		{"%*d", []constVal{intConst(5), intConst(1)}, "", false},
		{"%.*d", []constVal{intConst(5), intConst(1)}, "", false},
	}
	for _, c := range cases {
		got, ok := expandFormat(c.format, c.args)
		if ok != c.ok || got != c.want {
			t.Errorf("expandFormat(%q) = %q, %v; want %q, %v", c.format, got, ok, c.want, c.ok)
		}
	}
}
