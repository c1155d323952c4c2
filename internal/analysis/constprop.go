package analysis

import (
	"strconv"
	"strings"

	"tunio/internal/csrc"
)

// String-constant propagation: a forward abstract interpretation over each
// function's CFG that proves, per program point, which variables hold a
// known constant string (or integer). The discovery path-switch transform
// uses it to resolve computed path arguments — sprintf("%s/%s", dir, base)
// of constant operands — to proven literals instead of blocking on TR003.
//
// The lattice per variable is
//
//	⊤ (unreached / no information yet)
//	  > "some exact string"  |  exact integer
//	    > ⊥ (not a constant)
//
// with meet at control-flow joins (equal constants survive, differing
// constants fall to ⊥) and a fixpoint over loops. The modeled string
// writers — sprintf, snprintf, strcpy, strcat — are strong updates: each
// writes a complete NUL-terminated string into its destination buffer.
// Every unmodeled call that could write a variable (a bare-identifier
// argument of a non-builtin call, or an &x out-argument) drops that
// variable to ⊥, mirroring the def/use layer's out-argument conjecture.
//
// The pass is interprocedural through two summaries iterated to fixpoint
// across the file: retConst (a function provably returns one constant) and
// paramConst (every call site passes the same provable constant for a
// parameter).

// constKind ranks a lattice value.
type constKind int

const (
	constTop    constKind = iota // no information yet
	constStr                     // exact string
	constInt                     // exact integer
	constBottom                  // provably not a single constant
)

// constVal is one lattice value.
type constVal struct {
	kind constKind
	s    string
	i    int64
}

var (
	topVal    = constVal{kind: constTop}
	bottomVal = constVal{kind: constBottom}
)

func strConst(s string) constVal { return constVal{kind: constStr, s: s} }
func intConst(i int64) constVal  { return constVal{kind: constInt, i: i} }

// meet combines two lattice values at a join point.
func meet(a, b constVal) constVal {
	switch {
	case a.kind == constTop:
		return b
	case b.kind == constTop:
		return a
	case a == b:
		return a
	default:
		return bottomVal
	}
}

// env maps variable names to lattice values; a missing key is ⊤.
type env map[string]constVal

func (e env) get(v string) constVal {
	if val, ok := e[v]; ok {
		return val
	}
	return topVal
}

func (e env) clone() env {
	out := make(env, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

func meetEnv(a, b env) env {
	out := make(env, len(a)+len(b))
	for k, va := range a {
		out[k] = meet(va, b.get(k))
	}
	for k, vb := range b {
		if _, seen := a[k]; !seen {
			out[k] = meet(topVal, vb)
		}
	}
	return out
}

func sameEnv(a, b env) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// writerKind classifies the modeled string-writing libc calls.
type writerKind int

const (
	writerSprintf writerKind = iota
	writerSnprintf
	writerStrcpy
	writerStrncpy
	writerStrcat
)

// stringWriterCalls are the calls modeled as strong whole-string updates
// of their first argument.
var stringWriterCalls = map[string]writerKind{
	"sprintf":  writerSprintf,
	"snprintf": writerSnprintf,
	"strcpy":   writerStrcpy,
	"strncpy":  writerStrncpy,
	"strcat":   writerStrcat,
}

// StringProp is the computed propagation result for one file. Build it
// with NewStringProp and query program points with Resolve.
type StringProp struct {
	file   *csrc.File
	locals map[string]map[string]bool

	// globalConst holds file-scope variables provably constant for the
	// whole run: a literal initializer and no definition anywhere else.
	globalConst map[string]constVal

	// interprocedural summaries, iterated to fixpoint
	retConst   map[string]constVal   // function -> provable return value
	paramConst map[string][]constVal // function -> per-parameter value

	stmtEnv map[int]env    // statement ID -> env just before it
	stmtFn  map[int]string // statement ID -> enclosing function

	// aliased marks variables that participate in a plain ident-to-ident
	// copy inside their function ("p = buf"): a write through one name may
	// be visible through the other, so string-writer updates of aliased
	// destinations are demoted to ⊥ instead of strong constants.
	aliased map[string]map[string]bool

	callSites map[string][]callSite         // callee -> calling statements
	returns   map[string][]*csrc.ReturnStmt // function -> return statements
}

// callSite is one statement calling a user-defined function.
type callSite struct {
	stmt csrc.Stmt
	fn   string // caller
	call *csrc.CallExpr
}

// NewStringProp runs the propagation over a parsed file.
func NewStringProp(f *csrc.File) *StringProp {
	p := &StringProp{
		file:        f,
		locals:      LocalNames(f),
		globalConst: map[string]constVal{},
		retConst:    map[string]constVal{},
		paramConst:  map[string][]constVal{},
		stmtEnv:     map[int]env{},
		stmtFn:      map[int]string{},
		aliased:     map[string]map[string]bool{},
		callSites:   map[string][]callSite{},
		returns:     map[string][]*csrc.ReturnStmt{},
	}
	p.collectGlobalConsts()
	p.collectAliases()
	p.collectSites()

	totalParams := 0
	for _, fn := range f.Funcs {
		p.retConst[fn.Name] = bottomVal
		p.paramConst[fn.Name] = make([]constVal, len(fn.Params))
		for i := range p.paramConst[fn.Name] {
			p.paramConst[fn.Name][i] = bottomVal
		}
		totalParams += len(fn.Params)
	}

	// Summaries start pessimistic (⊥) and each round can only upgrade a
	// summary ⊥ → const using facts proved in earlier rounds (a constant,
	// once derived, never changes: it was proved with a subset of the
	// current facts). The fact count bounds the rounds.
	maxRounds := totalParams + len(f.Funcs) + 1
	for round := 0; round < maxRounds; round++ {
		p.stmtEnv = map[int]env{}
		for _, fn := range f.Funcs {
			p.analyzeFunc(fn)
		}
		if !p.updateSummaries() {
			break
		}
	}
	return p
}

// Resolve evaluates an expression at a program point and reports the exact
// string it holds, if provable.
func (p *StringProp) Resolve(st csrc.Stmt, e csrc.Expr) (string, bool) {
	if st == nil {
		return "", false
	}
	id := st.Base().ID
	envAt, ok := p.stmtEnv[id]
	if !ok {
		return "", false
	}
	v := p.eval(e, envAt, p.stmtFn[id])
	if v.kind != constStr {
		return "", false
	}
	return v.s, true
}

// collectGlobalConsts finds file-scope variables that are constants for
// the whole run: literal (or foldable) initializer, never redefined by any
// statement — including conjectured out-argument writes.
func (p *StringProp) collectGlobalConsts() {
	redefined := map[string]bool{}
	for _, fn := range p.file.Funcs {
		loc := p.locals[fn.Name]
		walkFuncStmts(fn, func(s csrc.Stmt) bool {
			for _, v := range p.clobberedVars(s, fn.Name) {
				if !loc[v] {
					redefined[v] = true
				}
			}
			return true
		})
	}
	for _, g := range p.file.Globals {
		if redefined[g.Name] || g.Init == nil || g.ArrayLen != nil || g.InitList != nil {
			continue
		}
		// globals see only other globals; evaluate in an empty env
		v := p.eval(g.Init, env{}, "")
		if v.kind == constStr || v.kind == constInt {
			p.globalConst[g.Name] = v
		}
	}
}

// clobberedVars lists the variables a statement may write under the same
// abstract semantics transfer applies: decl names, assignment targets,
// string-writer destinations, &x out-arguments, and bare-identifier
// arguments of unmodeled calls. Unlike StmtDefUse, the read-only arguments
// of the modeled string writers are not conjectured writes.
func (p *StringProp) clobberedVars(s csrc.Stmt, fn string) []string {
	return clobberedNames(p.locals, s, fn)
}

// clobberedNames is the package-level form of clobberedVars, shared with
// the interval analysis (which applies the same write conjecture).
func clobberedNames(locals map[string]map[string]bool, s csrc.Stmt, fn string) []string {
	var out []string
	for _, x := range stmtExprs(s) {
		csrc.WalkExpr(x, func(node csrc.Expr) bool {
			c, ok := node.(*csrc.CallExpr)
			if !ok {
				return true
			}
			shadowed := fn != "" && locals[fn][c.Fun]
			if _, isWriter := stringWriterCalls[c.Fun]; isWriter && !shadowed {
				if len(c.Args) > 0 {
					if base := rootIdent(c.Args[0]); base != "" {
						out = append(out, base)
					}
				}
				return true
			}
			argSafe := knownBuiltins[c.Fun] && !shadowed
			for _, a := range c.Args {
				switch arg := a.(type) {
				case *csrc.UnaryExpr:
					if arg.Op == "&" {
						if id, ok := arg.X.(*csrc.Ident); ok {
							out = append(out, id.Name)
						}
					}
				case *csrc.Ident:
					if !argSafe {
						out = append(out, arg.Name)
					}
				}
			}
			return true
		})
	}
	switch st := s.(type) {
	case *csrc.DeclStmt:
		out = append(out, st.Name)
	case *csrc.AssignStmt:
		if base := rootIdent(st.LHS); base != "" {
			out = append(out, base)
		}
	}
	return out
}

// collectAliases records per function the variables copied between plain
// identifiers.
func (p *StringProp) collectAliases() {
	for _, fn := range p.file.Funcs {
		set := map[string]bool{}
		walkFuncStmts(fn, func(s csrc.Stmt) bool {
			switch st := s.(type) {
			case *csrc.DeclStmt:
				if id, ok := st.Init.(*csrc.Ident); ok {
					set[st.Name], set[id.Name] = true, true
				}
			case *csrc.AssignStmt:
				if lhs, ok := st.LHS.(*csrc.Ident); ok && st.Op == "=" {
					if rhs, ok := st.RHS.(*csrc.Ident); ok {
						set[lhs.Name], set[rhs.Name] = true, true
					}
				}
			}
			return true
		})
		p.aliased[fn.Name] = set
	}
}

// collectSites records user-function call sites and return statements.
func (p *StringProp) collectSites() {
	for _, fn := range p.file.Funcs {
		walkFuncStmts(fn, func(s csrc.Stmt) bool {
			if r, ok := s.(*csrc.ReturnStmt); ok {
				p.returns[fn.Name] = append(p.returns[fn.Name], r)
			}
			for _, x := range stmtExprs(s) {
				csrc.WalkExpr(x, func(node csrc.Expr) bool {
					c, ok := node.(*csrc.CallExpr)
					if !ok {
						return true
					}
					if p.file.Func(c.Fun) != nil && !p.locals[fn.Name][c.Fun] {
						p.callSites[c.Fun] = append(p.callSites[c.Fun], callSite{stmt: s, fn: fn.Name, call: c})
					}
					return true
				})
			}
			return true
		})
	}
}

// updateSummaries recomputes the interprocedural summaries from the
// converged per-statement envs and reports whether anything changed.
func (p *StringProp) updateSummaries() bool {
	changed := false
	for _, fn := range p.file.Funcs {
		// return summary: every return must yield the same provable constant
		ret := topVal
		for _, r := range p.returns[fn.Name] {
			if r.X == nil {
				ret = bottomVal
				break
			}
			envAt, ok := p.stmtEnv[r.Base().ID]
			if !ok {
				continue // unreachable return does not execute
			}
			ret = meet(ret, p.eval(r.X, envAt, fn.Name))
		}
		if len(p.returns[fn.Name]) == 0 || ret.kind == constTop {
			ret = bottomVal
		}
		if p.retConst[fn.Name] != ret {
			p.retConst[fn.Name] = ret
			changed = true
		}

		// parameter summary: every call site passes the same constant
		sites := p.callSites[fn.Name]
		for i := range p.paramConst[fn.Name] {
			v := topVal
			if len(sites) == 0 {
				v = bottomVal // never called from this file (e.g. main)
			}
			for _, cs := range sites {
				if i >= len(cs.call.Args) {
					v = bottomVal
					break
				}
				envAt, ok := p.stmtEnv[cs.stmt.Base().ID]
				if !ok {
					v = bottomVal // call from an unanalyzed point
					break
				}
				v = meet(v, p.eval(cs.call.Args[i], envAt, cs.fn))
			}
			if v.kind == constTop {
				v = bottomVal
			}
			if p.paramConst[fn.Name][i] != v {
				p.paramConst[fn.Name][i] = v
				changed = true
			}
		}
	}
	return changed
}

// analyzeFunc runs the forward dataflow over one function and records the
// per-statement envs.
func (p *StringProp) analyzeFunc(fn *csrc.FuncDecl) {
	cfg := BuildCFG(fn)

	entry := env{}
	for i, prm := range fn.Params {
		if prm.Name == "" {
			continue
		}
		if pc := p.paramConst[fn.Name]; i < len(pc) && (pc[i].kind == constStr || pc[i].kind == constInt) {
			entry[prm.Name] = pc[i]
		} else {
			entry[prm.Name] = bottomVal
		}
	}

	in := map[int]env{}
	out := map[int]env{}
	rpo := cfg.reversePostorder()
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			var blockIn env
			if b == cfg.Entry {
				blockIn = entry.clone()
			}
			for _, pred := range b.Preds {
				po, ok := out[pred.ID]
				if !ok {
					continue // not yet computed (back edge on first pass)
				}
				if blockIn == nil {
					blockIn = po.clone()
				} else {
					blockIn = meetEnv(blockIn, po)
				}
			}
			if blockIn == nil {
				blockIn = env{}
			}
			cur := blockIn.clone()
			for _, s := range b.Stmts {
				p.transfer(cur, s, fn.Name)
			}
			if prev, ok := out[b.ID]; !ok || !sameEnv(prev, cur) {
				in[b.ID] = blockIn
				out[b.ID] = cur
				changed = true
			}
		}
	}

	// record per-statement pre-envs from the converged block inputs
	for _, b := range cfg.Blocks {
		cur, ok := in[b.ID]
		if !ok {
			continue // unreachable block
		}
		cur = cur.clone()
		for _, s := range b.Stmts {
			id := s.Base().ID
			p.stmtEnv[id] = cur.clone()
			p.stmtFn[id] = fn.Name
			p.transfer(cur, s, fn.Name)
		}
	}
}

// stmtExprs returns a statement's top-level expressions (headers:
// condition only, matching the CFG decomposition).
func stmtExprs(s csrc.Stmt) []csrc.Expr {
	var exprs []csrc.Expr
	switch st := s.(type) {
	case *csrc.DeclStmt:
		exprs = append(exprs, st.Init, st.ArrayLen)
		for _, e := range st.InitList {
			exprs = append(exprs, e)
		}
	case *csrc.AssignStmt:
		exprs = append(exprs, st.LHS, st.RHS)
	case *csrc.ExprStmt:
		exprs = append(exprs, st.X)
	case *csrc.IfStmt:
		exprs = append(exprs, st.Cond)
	case *csrc.ForStmt:
		exprs = append(exprs, st.Cond)
	case *csrc.WhileStmt:
		exprs = append(exprs, st.Cond)
	case *csrc.ReturnStmt:
		exprs = append(exprs, st.X)
	}
	return exprs
}

// transfer applies one statement's effect to the env in place.
func (p *StringProp) transfer(e env, s csrc.Stmt, fn string) {
	// call effects first: modeled string writers update their destination
	// strongly; every other call clobbers its writable arguments
	for _, x := range stmtExprs(s) {
		csrc.WalkExpr(x, func(node csrc.Expr) bool {
			c, ok := node.(*csrc.CallExpr)
			if !ok {
				return true
			}
			shadowed := fn != "" && p.locals[fn][c.Fun]
			if kind, isWriter := stringWriterCalls[c.Fun]; isWriter && !shadowed {
				p.applyWriter(e, c, kind, fn)
				return true
			}
			argSafe := knownBuiltins[c.Fun] && !shadowed
			for _, a := range c.Args {
				switch arg := a.(type) {
				case *csrc.UnaryExpr:
					if arg.Op == "&" {
						if id, ok := arg.X.(*csrc.Ident); ok {
							e[id.Name] = bottomVal
						}
					}
				case *csrc.Ident:
					if !argSafe {
						e[arg.Name] = bottomVal
					}
				}
			}
			return true
		})
	}

	switch st := s.(type) {
	case *csrc.DeclStmt:
		switch {
		case st.ArrayLen != nil || st.InitList != nil:
			e[st.Name] = bottomVal // buffer contents are not a scalar constant
		case st.Init != nil:
			e[st.Name] = p.eval(st.Init, e, fn)
		default:
			e[st.Name] = bottomVal // uninitialized scalar
		}
	case *csrc.AssignStmt:
		if id, ok := st.LHS.(*csrc.Ident); ok {
			switch st.Op {
			case "=":
				e[id.Name] = p.eval(st.RHS, e, fn)
			case "++", "--":
				if cur := e.get(id.Name); cur.kind == constInt {
					if st.Op == "++" {
						e[id.Name] = intConst(cur.i + 1)
					} else {
						e[id.Name] = intConst(cur.i - 1)
					}
				} else {
					e[id.Name] = bottomVal
				}
			default: // compound assignment
				op := strings.TrimSuffix(st.Op, "=") // "<<=" is "<<"
				e[id.Name] = evalBinary(op, e.get(id.Name), p.eval(st.RHS, e, fn))
			}
		} else if base := rootIdent(st.LHS); base != "" {
			e[base] = bottomVal // element / pointer store
		}
	}
}

// applyWriter models one sprintf-family call.
func (p *StringProp) applyWriter(e env, c *csrc.CallExpr, kind writerKind, fn string) {
	if len(c.Args) == 0 {
		return
	}
	dst, plain := c.Args[0].(*csrc.Ident)
	if !plain {
		if base := rootIdent(c.Args[0]); base != "" {
			e[base] = bottomVal
		}
		return
	}
	// writes through a copy-aliased buffer may be visible under another
	// name this analysis does not update — refuse the strong constant
	if p.aliased[fn][dst.Name] {
		e[dst.Name] = bottomVal
		return
	}

	result := bottomVal
	switch kind {
	case writerSprintf, writerSnprintf:
		fmtIdx := 1
		if kind == writerSnprintf {
			fmtIdx = 2
		}
		if fmtIdx < len(c.Args) {
			if lit, ok := c.Args[fmtIdx].(*csrc.StringLit); ok {
				args := make([]constVal, 0, len(c.Args)-fmtIdx-1)
				for _, a := range c.Args[fmtIdx+1:] {
					args = append(args, p.eval(a, e, fn))
				}
				if s, ok := expandFormat(lit.Value, args); ok {
					if kind == writerSnprintf {
						// snprintf stores at most n-1 bytes; a non-constant
						// or non-positive size leaves dst unprovable.
						n := p.eval(c.Args[1], e, fn)
						if n.kind != constInt || n.i <= 0 {
							e[dst.Name] = bottomVal
							return
						}
						if int64(len(s)) >= n.i {
							s = s[:n.i-1]
						}
					}
					result = strConst(s)
				}
			}
		}
	case writerStrcpy:
		if len(c.Args) >= 2 {
			if v := p.eval(c.Args[1], e, fn); v.kind == constStr {
				result = v
			}
		}
	case writerStrncpy:
		// strncpy null-terminates dst only when the source fits below n; a
		// truncating copy leaves dst unterminated, so nothing is provable.
		if len(c.Args) >= 3 {
			src := p.eval(c.Args[1], e, fn)
			n := p.eval(c.Args[2], e, fn)
			if src.kind == constStr && n.kind == constInt && int64(len(src.s)) < n.i {
				result = src
			}
		}
	case writerStrcat:
		if len(c.Args) >= 2 {
			cur := e.get(dst.Name)
			src := p.eval(c.Args[1], e, fn)
			if cur.kind == constStr && src.kind == constStr {
				result = strConst(cur.s + src.s)
			}
		}
	}
	e[dst.Name] = result
}

// eval abstracts one expression in an env.
func (p *StringProp) eval(x csrc.Expr, e env, fn string) constVal {
	switch ex := x.(type) {
	case nil:
		return bottomVal
	case *csrc.StringLit:
		return strConst(ex.Value)
	case *csrc.NumberLit:
		if ex.IsFloat {
			return bottomVal
		}
		return intConst(ex.Int)
	case *csrc.CharLit:
		return intConst(int64(ex.Value))
	case *csrc.Ident:
		if fn != "" && p.locals[fn][ex.Name] {
			return e.get(ex.Name).orBottom()
		}
		if v, ok := p.globalConst[ex.Name]; ok {
			return v
		}
		if v, ok := e[ex.Name]; ok {
			return v.orBottom()
		}
		return bottomVal
	case *csrc.UnaryExpr:
		if ex.Op == "-" {
			if v := p.eval(ex.X, e, fn); v.kind == constInt {
				return intConst(-v.i)
			}
		}
		return bottomVal
	case *csrc.BinaryExpr:
		return evalBinary(ex.Op, p.eval(ex.X, e, fn), p.eval(ex.Y, e, fn))
	case *csrc.CastExpr:
		return p.eval(ex.X, e, fn)
	case *csrc.CallExpr:
		if fn != "" && p.locals[fn][ex.Fun] {
			return bottomVal // call through a local name
		}
		if p.file.Func(ex.Fun) != nil {
			if v, ok := p.retConst[ex.Fun]; ok && (v.kind == constStr || v.kind == constInt) {
				return v
			}
		}
		return bottomVal
	default:
		return bottomVal
	}
}

// orBottom demotes ⊤ to ⊥ at use sites: a read of a variable with no
// recorded value proves nothing.
func (v constVal) orBottom() constVal {
	if v.kind == constTop {
		return bottomVal
	}
	return v
}

// evalBinary folds integer arithmetic on proven constants.
func evalBinary(op string, l, r constVal) constVal {
	if l.kind != constInt || r.kind != constInt {
		return bottomVal
	}
	a, b := l.i, r.i
	switch op {
	case "+":
		return intConst(a + b)
	case "-":
		return intConst(a - b)
	case "*":
		return intConst(a * b)
	case "/":
		if b == 0 {
			return bottomVal
		}
		return intConst(a / b)
	case "%":
		if b == 0 {
			return bottomVal
		}
		return intConst(a % b)
	case "<<":
		return intConst(a << uint(b&63))
	case ">>":
		return intConst(a >> uint(b&63))
	case "&":
		return intConst(a & b)
	case "|":
		return intConst(a | b)
	case "^":
		return intConst(a ^ b)
	default:
		return bottomVal
	}
}

// expandFormat renders a C format string over proven-constant arguments.
// Supported verbs: %s on strings, %d/%i/%u/%x (with optional l/ll/z length
// modifiers) on integers, and %%, each with optional 0/- flags, width, and
// precision — so zero-padded rank stamps like out.%05d.h5 resolve. A `*`
// width/precision or any other verb makes the expansion fail — the caller
// then keeps the path unresolved.
func expandFormat(format string, args []constVal) (string, bool) {
	var b strings.Builder
	ai := 0
	for i := 0; i < len(format); i++ {
		ch := format[i]
		if ch != '%' {
			b.WriteByte(ch)
			continue
		}
		i++
		if i >= len(format) {
			return "", false
		}
		if format[i] == '%' {
			b.WriteByte('%')
			continue
		}
		spec, n := parseVerbSpec(format[i:])
		if n < 0 {
			return "", false
		}
		i += n
		if i >= len(format) || ai >= len(args) {
			return "", false
		}
		switch format[i] {
		case 's':
			if args[ai].kind != constStr {
				return "", false
			}
			b.WriteString(spec.apply(args[ai].s))
		case 'd', 'i', 'u':
			if args[ai].kind != constInt {
				return "", false
			}
			b.WriteString(spec.applyInt(args[ai].i, 10))
		case 'x':
			if args[ai].kind != constInt {
				return "", false
			}
			b.WriteString(spec.applyInt(args[ai].i, 16))
		default:
			return "", false
		}
		ai++
	}
	return b.String(), true
}

// verbSpec is a parsed flags/width/precision prefix of one format verb.
type verbSpec struct {
	zero, left bool
	width      int
	prec       int // -1 means unset
}

// parseVerbSpec parses flags, width, precision, and l/z length modifiers
// from the front of s (the text after '%', up to but excluding the verb
// letter). It returns the spec and how many bytes were consumed, or a
// negative count for the unsupported `*`.
func parseVerbSpec(s string) (verbSpec, int) {
	sp := verbSpec{prec: -1}
	i := 0
	for i < len(s) && (s[i] == '0' || s[i] == '-') {
		if s[i] == '0' {
			sp.zero = true
		} else {
			sp.left = true
		}
		i++
	}
	if i < len(s) && s[i] == '*' {
		return sp, -1
	}
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		sp.width = sp.width*10 + int(s[i]-'0')
		i++
	}
	if i < len(s) && s[i] == '.' {
		i++
		if i < len(s) && s[i] == '*' {
			return sp, -1
		}
		sp.prec = 0
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			sp.prec = sp.prec*10 + int(s[i]-'0')
			i++
		}
	}
	for i < len(s) && (s[i] == 'l' || s[i] == 'z') {
		i++
	}
	return sp, i
}

// apply pads a rendered string to the spec (precision truncates strings,
// as in C).
func (sp verbSpec) apply(s string) string {
	if sp.prec >= 0 && len(s) > sp.prec {
		s = s[:sp.prec]
	}
	return sp.pad(s)
}

// applyInt renders an integer under the spec: precision sets minimum
// digits, the 0 flag zero-pads to the width (after any sign, ignored when
// precision or - is given — C semantics).
func (sp verbSpec) applyInt(v int64, base int) string {
	neg := v < 0
	digits := strconv.FormatInt(v, base)
	if neg {
		digits = digits[1:]
	}
	if sp.prec >= 0 {
		for len(digits) < sp.prec {
			digits = "0" + digits
		}
	} else if sp.zero && !sp.left {
		w := sp.width
		if neg {
			w--
		}
		for len(digits) < w {
			digits = "0" + digits
		}
	}
	if neg {
		digits = "-" + digits
	}
	return sp.pad(digits)
}

// pad space-pads s to the spec width on the side the - flag selects.
func (sp verbSpec) pad(s string) string {
	for len(s) < sp.width {
		if sp.left {
			s += " "
		} else {
			s = " " + s
		}
	}
	return s
}

// ResolvePathArgs scans the file for path-taking I/O calls (the discovery
// path-switch target set) whose path argument is not a string literal but
// resolves to a proven constant. The result maps statement ID -> resolved
// path, keyed further by the call name for diagnostics.
type ResolvedPathArg struct {
	Stmt csrc.Stmt
	Fn   string // enclosing function
	Call string // H5Fcreate, fopen, ...
	Arg  csrc.Expr
	Path string
}

// ResolvePathArgs returns every computed path argument the propagation can
// prove constant.
func (p *StringProp) ResolvePathArgs() []ResolvedPathArg {
	var out []ResolvedPathArg
	for _, fn := range p.file.Funcs {
		walkFuncStmts(fn, func(st csrc.Stmt) bool {
			for _, e := range stmtExprs(st) {
				csrc.WalkExpr(e, func(x csrc.Expr) bool {
					c, ok := x.(*csrc.CallExpr)
					if !ok {
						return true
					}
					idx, ok := pathCalls[c.Fun]
					if !ok || p.locals[fn.Name][c.Fun] || idx >= len(c.Args) {
						return true
					}
					if _, lit := c.Args[idx].(*csrc.StringLit); lit {
						return true
					}
					if path, ok := p.Resolve(st, c.Args[idx]); ok {
						out = append(out, ResolvedPathArg{
							Stmt: st, Fn: fn.Name, Call: c.Fun, Arg: c.Args[idx], Path: path,
						})
					}
					return true
				})
			}
			return true
		})
	}
	return out
}
