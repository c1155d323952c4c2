package csrc

import (
	"strings"
	"testing"
)

const tiny = `
#include <hdf5.h>
#define NP 1024

int main(int argc, char** argv) {
    int rank = 0;
    hsize_t dims[1] = {NP};
    double x = 3.5e2;
    for (int i = 0; i < NP; i++) { x = x + 1.0; }
    if (x > 10 && rank == 0) {
        printf("big %f\n", x);
    } else {
        x = -x;
    }
    while (x > 0) { x -= 1.0; }
    return 0;
}
`

func TestLexBasics(t *testing.T) {
	toks, defines, err := Lex(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if defines["NP"] != "1024" {
		t.Fatalf("defines = %v", defines)
	}
	if toks[len(toks)-1].Kind != TokEOF {
		t.Fatal("missing EOF token")
	}
	// #include must vanish
	for _, tok := range toks {
		if tok.Text == "include" || tok.Text == "hdf5" {
			t.Fatalf("include leaked into tokens: %v", tok)
		}
	}
}

func TestLexMacroExpansion(t *testing.T) {
	toks, _, err := Lex("#define N 42\nint x = N;")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tok := range toks {
		if tok.Kind == TokNumber && tok.Text == "42" {
			found = true
		}
		if tok.Text == "N" {
			t.Fatal("macro not expanded")
		}
	}
	if !found {
		t.Fatal("expansion missing")
	}
}

func TestLexComments(t *testing.T) {
	toks, _, err := Lex("int a; // c1\n/* c2\nc3 */ int b;")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if strings.Contains(tok.Text, "c1") || strings.Contains(tok.Text, "c3") {
			t.Fatal("comment leaked")
		}
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, _, err := Lex(`char* s = "a\nb\"c";`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if tok.Kind == TokString {
			if tok.Text != "a\nb\"c" {
				t.Fatalf("string = %q", tok.Text)
			}
			return
		}
	}
	t.Fatal("no string token")
}

func TestLexErrors(t *testing.T) {
	if _, _, err := Lex(`char* s = "unterminated`); err == nil {
		t.Fatal("want error")
	}
	if _, _, err := Lex("int a = $;"); err == nil {
		t.Fatal("want error for bad char")
	}
}

func TestParseTiny(t *testing.T) {
	f, err := Parse(tiny)
	if err != nil {
		t.Fatal(err)
	}
	main := f.Func("main")
	if main == nil {
		t.Fatal("main not found")
	}
	if len(main.Params) != 2 || main.Params[1].Type != "char**" {
		t.Fatalf("params = %+v", main.Params)
	}
	// count statement kinds
	var decls, fors, ifs, whiles, returns int
	f.WalkStmts(func(s Stmt) bool {
		switch s.(type) {
		case *DeclStmt:
			decls++
		case *ForStmt:
			fors++
		case *IfStmt:
			ifs++
		case *WhileStmt:
			whiles++
		case *ReturnStmt:
			returns++
		}
		return true
	})
	if decls < 4 || fors != 1 || ifs != 1 || whiles != 1 || returns != 1 {
		t.Fatalf("stmt counts: decls=%d fors=%d ifs=%d whiles=%d returns=%d",
			decls, fors, ifs, whiles, returns)
	}
}

func TestParseArrayInitializer(t *testing.T) {
	f, err := Parse("int main() { hsize_t dims[2] = {4, 8}; return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	var decl *DeclStmt
	f.WalkStmts(func(s Stmt) bool {
		if d, ok := s.(*DeclStmt); ok && d.Name == "dims" {
			decl = d
		}
		return true
	})
	if decl == nil || len(decl.InitList) != 2 {
		t.Fatalf("decl = %+v", decl)
	}
}

func TestParsePrecedence(t *testing.T) {
	f, err := Parse("int main() { int x = 1 + 2 * 3; return x; }")
	if err != nil {
		t.Fatal(err)
	}
	var decl *DeclStmt
	f.WalkStmts(func(s Stmt) bool {
		if d, ok := s.(*DeclStmt); ok && d.Name == "x" {
			decl = d
		}
		return true
	})
	be, ok := decl.Init.(*BinaryExpr)
	if !ok || be.Op != "+" {
		t.Fatalf("top op = %v", PrintExpr(decl.Init))
	}
	if inner, ok := be.Y.(*BinaryExpr); !ok || inner.Op != "*" {
		t.Fatalf("precedence wrong: %v", PrintExpr(decl.Init))
	}
}

func TestParseCallsAndAddressOf(t *testing.T) {
	src := `int main() {
		int rank;
		MPI_Comm_rank(0, &rank);
		hid_t file = H5Fcreate("out.h5", 0, 0, 0);
		H5Fclose(file);
		return 0;
	}`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var calls []string
	f.WalkStmts(func(s Stmt) bool {
		if es, ok := s.(*ExprStmt); ok {
			if c, ok := es.X.(*CallExpr); ok {
				calls = append(calls, c.Fun)
			}
		}
		if d, ok := s.(*DeclStmt); ok && d.Init != nil {
			if c, ok := d.Init.(*CallExpr); ok {
				calls = append(calls, c.Fun)
			}
		}
		return true
	})
	want := map[string]bool{"MPI_Comm_rank": true, "H5Fcreate": true, "H5Fclose": true}
	for _, c := range calls {
		delete(want, c)
	}
	if len(want) != 0 {
		t.Fatalf("missing calls: %v (got %v)", want, calls)
	}
}

func TestParseSizeofAndCast(t *testing.T) {
	f, err := Parse("int main() { double* p = (double*)malloc(100 * sizeof(double)); return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	var decl *DeclStmt
	f.WalkStmts(func(s Stmt) bool {
		if d, ok := s.(*DeclStmt); ok && d.Name == "p" {
			decl = d
		}
		return true
	})
	cast, ok := decl.Init.(*CastExpr)
	if !ok || cast.Type != "double*" {
		t.Fatalf("init = %v", PrintExpr(decl.Init))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"int main() {",                 // unterminated block
		"foo bar;",                     // not a type
		"int main() { int = 3; }",      // missing name
		"int main() { x ===; }",        // bad expression
		"int main() { if x > 0 {} }",   // missing parens
		"int main() { for (;;; ) {} }", // extra semicolon
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): want error", src)
		}
	}
}

func TestFormatOneStatementPerLine(t *testing.T) {
	f, err := Parse(tiny)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(f)
	for _, line := range strings.Split(out, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || trimmed == "{" || trimmed == "}" || trimmed == "else" {
			continue
		}
		// at most one semicolon per line except for-headers
		if !strings.HasPrefix(trimmed, "for ") && strings.Count(trimmed, ";") > 1 {
			t.Fatalf("multiple statements on one line: %q", trimmed)
		}
	}
	// braces on their own lines
	for _, line := range strings.Split(out, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.Contains(trimmed, "{") && trimmed != "{" && !strings.Contains(trimmed, "= {") {
			t.Fatalf("brace not on its own line: %q", trimmed)
		}
	}
}

func TestFormatAssignsLines(t *testing.T) {
	f, err := Parse(tiny)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(f)
	lines := strings.Split(out, "\n")
	f.WalkStmts(func(s Stmt) bool {
		b := s.Base()
		if b.Line == 0 {
			t.Fatalf("statement %T has no line", s)
		}
		if b.Line > len(lines) {
			t.Fatalf("line %d out of range", b.Line)
		}
		return true
	})
}

func TestFormatRoundTripParses(t *testing.T) {
	f, err := Parse(tiny)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(f)
	f2, err := Parse(out)
	if err != nil {
		t.Fatalf("formatted output does not reparse: %v\n%s", err, out)
	}
	if Format(f2) != out {
		t.Fatal("Format not idempotent")
	}
}

func TestExprVars(t *testing.T) {
	f, _ := Parse("int main() { int z = a + b[i] * foo(c, a); return z; }")
	var decl *DeclStmt
	f.WalkStmts(func(s Stmt) bool {
		if d, ok := s.(*DeclStmt); ok && d.Name == "z" {
			decl = d
		}
		return true
	})
	vars := ExprVars(decl.Init)
	want := map[string]bool{"a": true, "b": true, "i": true, "c": true}
	for _, v := range vars {
		delete(want, v)
	}
	if len(want) != 0 {
		t.Fatalf("missing vars %v in %v", want, vars)
	}
	// deduplicated
	count := 0
	for _, v := range vars {
		if v == "a" {
			count++
		}
	}
	if count != 1 {
		t.Fatal("vars not deduplicated")
	}
}

func TestGlobals(t *testing.T) {
	f, err := Parse("int gcount = 5;\nint main() { return gcount; }")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Globals) != 1 || f.Globals[0].Name != "gcount" {
		t.Fatalf("globals = %+v", f.Globals)
	}
}

func TestWalkStmtsEarlyStop(t *testing.T) {
	f, _ := Parse(tiny)
	n := 0
	f.WalkStmts(func(s Stmt) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestParseTypeVariants(t *testing.T) {
	src := `
unsigned long counter = 0;
const double PI = 3.14159;
static int flag;
struct stat info;
int main() {
    unsigned int x = 1;
    long long big = 5;
    return 0;
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Globals) != 4 {
		t.Fatalf("globals = %d", len(f.Globals))
	}
	if f.Globals[3].Type != "struct stat" {
		t.Fatalf("struct type = %q", f.Globals[3].Type)
	}
}

func TestParseSingleStatementBodies(t *testing.T) {
	// if/for/while without braces wrap in implicit blocks.
	f, err := Parse(`
int main() {
    int s = 0;
    for (int i = 0; i < 3; i++) s += i;
    if (s > 0) s = -s;
    while (s < 0) s++;
    return s;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(f)
	if _, err := Parse(out); err != nil {
		t.Fatalf("formatted braceless bodies do not reparse: %v\n%s", err, out)
	}
}

func TestParseCompoundAssignOps(t *testing.T) {
	f, err := Parse(`
int main() {
    int x = 100;
    x += 1;
    x -= 2;
    x *= 3;
    x /= 4;
    x %= 5;
    x <<= 6;
    x >>= 7;
    x &= 8;
    x |= 9;
    x ^= 10;
    x--;
    return x;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	// ... and they print as they were written
	if again, err := Parse(Format(f)); err != nil || Format(again) != Format(f) {
		t.Fatalf("printed form does not round-trip: %v\n%s", err, Format(f))
	}
	ops := map[string]bool{}
	f.WalkStmts(func(s Stmt) bool {
		if a, ok := s.(*AssignStmt); ok {
			ops[a.Op] = true
		}
		return true
	})
	for _, want := range []string{"+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^=", "--"} {
		if !ops[want] {
			t.Errorf("op %q not parsed as assignment", want)
		}
	}
}

func TestParseElseIfChain(t *testing.T) {
	f, err := Parse(`
int main() {
    int v = 3;
    if (v == 1) {
        v = 10;
    } else if (v == 2) {
        v = 20;
    } else {
        v = 30;
    }
    return v;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	// the else-if nests as IfStmt inside the Else block
	depth := 0
	f.WalkStmts(func(s Stmt) bool {
		if _, ok := s.(*IfStmt); ok {
			depth++
		}
		return true
	})
	if depth != 2 {
		t.Fatalf("if count = %d, want 2", depth)
	}
}

func TestParamArrayDecaysToPointer(t *testing.T) {
	f, err := Parse(`void fill(double vals[], int n) { vals[0] = 1.0; }
int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	fn := f.Func("fill")
	if fn == nil || fn.Params[0].Type != "double*" {
		t.Fatalf("param type = %+v", fn.Params)
	}
}

func TestFormatEmptyFunction(t *testing.T) {
	f, err := Parse("void nop() {}\nint main() { nop(); return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(Format(f)); err != nil {
		t.Fatal(err)
	}
}

func TestExprVarsNil(t *testing.T) {
	if got := ExprVars(nil); got != nil {
		t.Fatalf("ExprVars(nil) = %v", got)
	}
}

func TestPrintExprCoverage(t *testing.T) {
	f, err := Parse(`
int main() {
    char c = 'x';
    int n = sizeof(long);
    double d = (double)n;
    int neg = -n;
    int not = !n;
    int inv = ~n;
    return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(f)
	for _, want := range []string{"'x'", "sizeof(long)", "(double)", "-n", "!n", "~n"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}
}
