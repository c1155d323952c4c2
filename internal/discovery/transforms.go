package discovery

import (
	"fmt"

	"tunio/internal/analysis"
	"tunio/internal/csrc"
)

// reduceLoops rewrites the bound of outermost for loops that contain I/O
// calls so only `fraction` of iterations run (Loop Reduction, §III-B).
// A loop `for (i = a; i < bound; i++)` becomes
// `for (i = a; i < __loop_reduce(bound); i++)`; the interpreter evaluates
// the builtin as max(1, floor(bound * fraction)). Nested I/O loops inside
// an already-reduced loop are left alone so reductions do not compound.
// Returns the number of loops rewritten.
func reduceLoops(f *csrc.File, fraction float64, isIO func(string) bool) int {
	reduced := 0
	locals := analysis.LocalNames(f)
	var visitBlock func(b *csrc.Block, fnIsIO func(string) bool, insideReduced bool)
	var visit func(s csrc.Stmt, fnIsIO func(string) bool, insideReduced bool)

	visitBlock = func(b *csrc.Block, fnIsIO func(string) bool, insideReduced bool) {
		if b == nil {
			return
		}
		for _, s := range b.Stmts {
			visit(s, fnIsIO, insideReduced)
		}
	}
	visit = func(s csrc.Stmt, fnIsIO func(string) bool, insideReduced bool) {
		switch st := s.(type) {
		case *csrc.Block:
			visitBlock(st, fnIsIO, insideReduced)
		case *csrc.IfStmt:
			visitBlock(st.Then, fnIsIO, insideReduced)
			visitBlock(st.Else, fnIsIO, insideReduced)
		case *csrc.WhileStmt:
			visitBlock(st.Body, fnIsIO, insideReduced)
		case *csrc.ForStmt:
			if !insideReduced && blockHasIO(st.Body, fnIsIO) {
				if rewriteBound(st, fraction) {
					reduced++
					visitBlock(st.Body, fnIsIO, true)
					return
				}
			}
			visitBlock(st.Body, fnIsIO, insideReduced)
		}
	}
	for _, fn := range f.Funcs {
		loc := locals[fn.Name]
		// calls through locally-declared names are not I/O library calls
		fnIsIO := func(name string) bool { return isIO(name) && !loc[name] }
		visitBlock(fn.Body, fnIsIO, false)
	}
	return reduced
}

// blockHasIO reports whether a block tree contains an I/O call.
func blockHasIO(b *csrc.Block, isIO func(string) bool) bool {
	found := false
	var visitExpr func(e csrc.Expr)
	visitExpr = func(e csrc.Expr) {
		csrc.WalkExpr(e, func(x csrc.Expr) bool {
			if c, ok := x.(*csrc.CallExpr); ok && isIO(c.Fun) {
				found = true
				return false
			}
			return true
		})
	}
	var visit func(s csrc.Stmt)
	visitBlock := func(bb *csrc.Block) {
		if bb == nil {
			return
		}
		for _, s := range bb.Stmts {
			visit(s)
		}
	}
	visit = func(s csrc.Stmt) {
		if found {
			return
		}
		switch st := s.(type) {
		case *csrc.ExprStmt:
			visitExpr(st.X)
		case *csrc.DeclStmt:
			visitExpr(st.Init)
		case *csrc.AssignStmt:
			visitExpr(st.RHS)
		case *csrc.Block:
			visitBlock(st)
		case *csrc.IfStmt:
			visitBlock(st.Then)
			visitBlock(st.Else)
		case *csrc.ForStmt:
			visitBlock(st.Body)
		case *csrc.WhileStmt:
			visitBlock(st.Body)
		}
	}
	visitBlock(b)
	return found
}

// rewriteBound wraps the upper bound of a `i < bound` / `i <= bound`
// condition in the loop-reduction builtin. Returns false for loop shapes
// it cannot rewrite (the reduction is then skipped for that loop).
func rewriteBound(st *csrc.ForStmt, fraction float64) bool {
	cond, ok := st.Cond.(*csrc.BinaryExpr)
	if !ok {
		return false
	}
	switch cond.Op {
	case "<", "<=":
		if alreadyReduced(cond.Y) {
			return false
		}
		cond.Y = &csrc.CallExpr{
			Fun: csrc.LoopReduceBuiltin,
			Args: []csrc.Expr{
				cond.Y,
				&csrc.NumberLit{Text: fmt.Sprintf("%g", fraction), IsFloat: true, Float: fraction},
			},
		}
		return true
	default:
		return false
	}
}

func alreadyReduced(e csrc.Expr) bool {
	c, ok := e.(*csrc.CallExpr)
	return ok && c.Fun == csrc.LoopReduceBuiltin
}

// pathCalls are the calls whose first string argument is a file path.
var pathCalls = map[string]int{
	"H5Fcreate": 0, "H5Fopen": 0, "fopen": 0, "MPI_File_open": 1,
}

// memPath prepends /dev/shm to a path (idempotent).
func memPath(p string) string {
	switch {
	case p == "" || hasMemPrefix(p):
		return p
	case p[0] == '/':
		return "/dev/shm" + p
	default:
		return "/dev/shm/" + p
	}
}

// switchPaths prepends /dev/shm to path arguments of file-opening I/O
// calls (I/O Path Switching, §III-B), so evaluation I/O targets memory.
// Literal arguments are rewritten in place; computed arguments that
// string-constant propagation proves constant are replaced with the
// switched literal, and those resolutions are returned (the rest stay
// untouched and carry a TR003 warning from the verifier).
func switchPaths(f *csrc.File) []ResolvedPath {
	prop := analysis.NewStringProp(f)
	resolvable := map[csrc.Expr]analysis.ResolvedPathArg{}
	for _, r := range prop.ResolvePathArgs() {
		resolvable[r.Arg] = r
	}

	var resolved []ResolvedPath
	rewrite := func(e csrc.Expr) {
		csrc.WalkExpr(e, func(x csrc.Expr) bool {
			c, ok := x.(*csrc.CallExpr)
			if !ok {
				return true
			}
			argIdx, ok := pathCalls[c.Fun]
			if !ok || argIdx >= len(c.Args) {
				return true
			}
			if lit, ok := c.Args[argIdx].(*csrc.StringLit); ok {
				lit.Value = memPath(lit.Value)
			} else if r, ok := resolvable[c.Args[argIdx]]; ok {
				switched := memPath(r.Path)
				c.Args[argIdx] = &csrc.StringLit{Value: switched}
				resolved = append(resolved, ResolvedPath{
					Call: r.Call, Line: r.Stmt.Base().Pos, Path: r.Path, Switched: switched,
				})
			}
			return true
		})
	}
	f.WalkStmts(func(s csrc.Stmt) bool {
		switch st := s.(type) {
		case *csrc.ExprStmt:
			rewrite(st.X)
		case *csrc.DeclStmt:
			rewrite(st.Init)
		case *csrc.AssignStmt:
			rewrite(st.RHS)
		}
		return true
	})
	return resolved
}

func hasMemPrefix(p string) bool {
	return len(p) >= 8 && p[:8] == "/dev/shm"
}
