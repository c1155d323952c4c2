package cinterp

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"tunio/internal/csrc"
)

// A node is a closure over what the resolver found out about one piece of
// the program: the slots of its variables, its constants, its callee, its
// sub-nodes. A rank runs a node by calling it; nothing is looked up by name.
// Expressions and statements are reached through interp.eval and
// interp.exec, which charge the step reaching them costs.
type (
	evalFn func(*interp) Value  // an expression: its value, or in.err set
	execFn func(*interp) bool   // a statement or block: whether control goes on to what follows
	addrFn func(*interp) *Value // an lvalue, which costs no step: the location, or nil and in.err set
)

// function is a user function: where a call puts its arguments, how large a
// frame it needs, what it runs.
type function struct {
	params []int32 // the frame slot of each parameter, -1 for an unnamed one
	nslots int32
	nobjs  int // how many arrays the frame holds
	body   execFn
}

// program is a csrc.File resolved, shared by every rank of a Run.
type program struct {
	globals  []execFn // the global declarations, in order
	nglobals int32
	main     *function
}

// maxFrameArray is the longest array a frame holds: dims, starts and counts
// are as long as a dataset has dimensions.
const maxFrameArray = 8

// names is one lexical scope while it is being resolved: what each name
// declared in it so far resolves to. A slot >= 0 indexes the running call's
// frame, a slot < 0 the rank's global table at ^slot.
type names struct {
	vars     map[string]variable
	parent   *names
	implicit []int32 // the slots of this scope's implicit declarations
}

type variable struct {
	slot int32
	// implicit: declared by the first assignment to reach it (or &, or a
	// string builtin's destination), so a use may find it unset and has to
	// look further out.
	implicit bool
}

// resolver lowers one file. The tree walk this replaces looked every name
// up in a chain of maps each time a rank evaluated it; the resolver walks
// the same chain once, in the order statements execute, and leaves behind
// the slot the walk would have found.
type resolver struct {
	prog   program
	funcs  map[string]*function
	global *names
	cur    *names
	fn     *function // the function being resolved, nil among the globals
	// early: a global's initialiser calls a user function, which may then run
	// before a later global exists: functions check the globals they use.
	early bool
}

// resolve lowers prog, which has a main. It refuses nothing: what the tree
// walk failed on when a rank got there — an unknown callee, a name nothing
// declared, an lvalue that is none — becomes a node that fails the same way.
func resolve(prog *csrc.File) *program {
	r := &resolver{funcs: map[string]*function{}}
	r.global = &names{vars: map[string]variable{}}
	r.cur = r.global
	for _, fn := range prog.Funcs {
		if r.funcs[fn.Name] == nil { // the first of a name is the one calls reach
			r.funcs[fn.Name] = &function{}
		}
	}
	for _, g := range prog.Globals {
		r.prog.globals = append(r.prog.globals, r.stmt(g))
	}
	for _, decl := range prog.Funcs {
		if r.fn = r.funcs[decl.Name]; r.fn.body != nil {
			continue
		}
		r.push()
		for _, p := range decl.Params {
			slot := int32(-1)
			if p.Name != "" {
				slot = r.declare(p.Name, false)
			}
			r.fn.params = append(r.fn.params, slot)
		}
		r.fn.body = r.block(decl.Body)
		r.pop()
	}
	r.prog.main = r.funcs["main"]
	return &r.prog
}

func (r *resolver) push() { r.cur = &names{vars: map[string]variable{}, parent: r.cur} }
func (r *resolver) pop()  { r.cur = r.cur.parent }

// declare gives name a new slot in the innermost scope. A redeclaration
// gets a slot of its own: references to the old one keep what they had.
func (r *resolver) declare(name string, implicit bool) int32 {
	slot := r.reserve(1)
	r.cur.vars[name] = variable{slot, implicit}
	if implicit {
		r.cur.implicit = append(r.cur.implicit, slot)
	}
	return slot
}

// reserve takes n consecutive slots of the frame, or of the global table.
func (r *resolver) reserve(n int32) int32 {
	if r.fn == nil {
		r.prog.nglobals += n
		return ^(r.prog.nglobals - n)
	}
	r.fn.nslots += n
	return r.fn.nslots - n
}

// lookup finds what a use of name refers to, innermost scope first and the
// globals last, as the tree walk's chain of maps did. A declaration is a
// statement of its block, so what comes later in the block finds it made:
// the search ends at its slot (found). An implicit declaration may sit
// behind a branch not taken or a loop's first iteration, so a use has to
// check it when a rank gets there, and go on outwards if it is unset: those
// are maybe, in the order to try them.
func (r *resolver) lookup(name string) (maybe []int32, slot int32, found bool) {
	for s := r.cur; s != nil; s = s.parent {
		if v, ok := s.vars[name]; !ok {
			continue
		} else if v.implicit || s == r.global && r.early && r.fn != nil {
			maybe = append(maybe, v.slot)
		} else {
			return maybe, v.slot, true
		}
	}
	return maybe, 0, false
}

// read resolves a use of a variable's value: its slot, or one of the
// constants if no scope has the name, or the tree walk's run-time
// "undefined variable". The second result is the value if it is a constant.
func (r *resolver) read(name string) (evalFn, *Value) {
	maybe, slot, found := r.lookup(name)
	c, isConst := constants[name]
	switch {
	case found && maybe == nil && slot >= 0:
		return func(in *interp) Value { return in.frame[slot].load() }, nil
	case isConst && !found && maybe == nil:
		return konst(c, 1), &c
	}
	undefined := failing("cinterp: undefined variable %q", name)
	return func(in *interp) Value {
		switch v := in.firstSet(maybe); {
		case v != nil:
			return v.load()
		case found:
			return in.slot(slot).load()
		case isConst:
			return c
		}
		return undefined(in)
	}, nil
}

// assignable resolves a variable as an lvalue. A name no scope has declared
// when a rank gets there is declared then and there, in the innermost
// scope, as an int 0: implicit declaration, tolerated for kernel robustness.
func (r *resolver) assignable(name string) addrFn {
	maybe, slot, found := r.lookup(name)
	if _, ok := r.cur.vars[name]; !found && !ok {
		r.declare(name, true)
		maybe, _, _ = r.lookup(name)
	}
	if found && maybe == nil && slot >= 0 {
		return func(in *interp) *Value { return &in.frame[slot] }
	}
	return func(in *interp) *Value {
		v := in.firstSet(maybe)
		switch {
		case v != nil:
		case found:
			v = in.slot(slot)
		default: // maybe[0] is the innermost scope's
			v = in.slot(maybe[0])
			*v = IntVal(0)
		}
		return v
	}
}

// block resolves a brace-delimited statement list. Entering it is entering
// a new scope: the implicit declarations made in it last time are forgotten.
func (r *resolver) block(b *csrc.Block) execFn {
	r.push()
	stmts := make([]execFn, len(b.Stmts))
	for i, s := range b.Stmts {
		stmts[i] = r.stmt(s)
	}
	unset := r.cur.implicit
	r.pop()
	return func(in *interp) bool {
		for _, s := range unset {
			in.frame[s].Kind = kUnset
		}
		for _, s := range stmts {
			if !in.exec(s) {
				return false
			}
		}
		return true
	}
}

func (r *resolver) stmt(s csrc.Stmt) execFn {
	switch st := s.(type) {
	case nil: // a for loop without an init or a post statement
		return nil
	case *csrc.DeclStmt:
		return r.decl(st)
	case *csrc.ExprStmt:
		x, _ := r.expr(st.X)
		return func(in *interp) bool {
			in.eval(x)
			return in.err == nil
		}
	case *csrc.AssignStmt:
		return r.assign(st)
	case *csrc.Block:
		return r.block(st)
	case *csrc.IfStmt:
		cond, _ := r.expr(st.Cond)
		then, els := r.block(st.Then), execFn(nil)
		if st.Else != nil {
			els = r.block(st.Else)
		}
		return func(in *interp) bool {
			switch c := in.eval(cond); {
			case in.err != nil:
				return false
			case c.Truthy():
				return then(in)
			case els != nil:
				return els(in)
			}
			return true
		}
	case *csrc.ForStmt:
		r.push()
		// The post statement is resolved before the condition and the body,
		// which run before it only once: what it declares implicitly they
		// find in scope from the second iteration on, and check.
		init, post := r.stmt(st.Init), r.stmt(st.Post)
		cond, _ := r.expr(st.Cond)
		body := r.block(st.Body)
		unset := r.cur.implicit
		r.pop()
		return func(in *interp) bool {
			for _, s := range unset {
				in.frame[s].Kind = kUnset
			}
			if init != nil && !in.exec(init) {
				return false
			}
			// the back-edge costs a step: a loop with no condition, no post
			// and an empty body evaluates nothing else
			for (cond == nil || in.cond(cond)) && in.iterate(body) && in.charge(1) && (post == nil || in.exec(post)) {
			}
			return in.err == nil
		}
	case *csrc.WhileStmt:
		cond, _ := r.expr(st.Cond)
		body := r.block(st.Body)
		return func(in *interp) bool {
			for in.cond(cond) && in.iterate(body) {
			}
			return in.err == nil
		}
	case *csrc.ReturnStmt:
		x, _ := r.expr(st.X)
		return func(in *interp) bool {
			in.ret = Value{}
			if x != nil {
				in.ret = in.eval(x)
			}
			if in.err == nil {
				in.err = errReturn
			}
			return false
		}
	case *csrc.BreakStmt:
		return func(in *interp) bool { in.err = errBreak; return false }
	case *csrc.ContinueStmt:
		return func(in *interp) bool { in.err = errContinue; return false }
	}
	x := failing("cinterp: unsupported statement %T", s)
	return func(in *interp) bool { x(in); return false }
}

// decl resolves a declaration: the value first, then the variable — in
// `int x = x + 1` the x read is an outer one — on every pass through the
// block.
func (r *resolver) decl(st *csrc.DeclStmt) execFn {
	isFloat := isFloatType(st.Type)
	if st.ArrayLen == nil && st.InitList == nil {
		zero := IntVal(0)
		if isFloat {
			zero = FloatVal(0)
		}
		init, _ := r.expr(st.Init)
		slot := r.declare(st.Name, false)
		return func(in *interp) bool {
			v := zero
			if init != nil {
				v = in.eval(init)
			}
			*in.slot(slot) = v
			return in.err == nil
		}
	}
	length, known := r.expr(st.ArrayLen)
	if length == nil {
		known = &Value{Kind: KInt, I: int64(len(st.InitList))}
	}
	list := r.exprs(st.InitList)
	// A short initialised array of a function lives in the frame, as a
	// scalar does: a pass through the declaration fills the same elements
	// again instead of allocating new ones.
	elems, obj := int32(-1), 0
	if r.fn != nil && list != nil && known != nil && known.AsInt() >= 0 && known.AsInt() <= maxFrameArray {
		elems, obj = r.reserve(int32(known.AsInt())), r.fn.nobjs
		r.fn.nobjs++
	}
	slot, name := r.declare(st.Name, false), st.Name
	return func(in *interp) bool {
		n := int64(len(list))
		if length != nil {
			v := in.eval(length)
			if in.err != nil {
				return false
			}
			n = v.AsInt()
		}
		if n < 0 || n > 1<<20 {
			in.err = fmt.Errorf("cinterp: array %s has unreasonable length %d", name, n)
			return false
		}
		// an array costs its length: steps bound the rank's work, and
		// zeroing n elements is n of it
		if !in.charge(n) {
			return false
		}
		// Nothing reads it yet, and `char path[256]` may only ever be
		// sprintf'd over: it stays a length until something does (load).
		v := unreadArray(n, isFloat)
		if list != nil {
			if v = (Value{Kind: KArray}); elems >= 0 {
				v.obj = &in.objs[obj]
				v.obj.arr = in.frame[elems : elems+int32(n) : elems+int32(n)]
				fillZero(v.obj.arr, isFloat)
			} else {
				v.obj = &object{arr: zeroArray(n, isFloat)}
			}
			for i, e := range list {
				if int64(i) >= n {
					break
				}
				if v.obj.arr[i] = in.eval(e); in.err != nil {
					return false
				}
			}
		}
		*in.slot(slot) = v
		return true
	}
}

func (r *resolver) assign(st *csrc.AssignStmt) execFn {
	lhs := r.lvalue(st.LHS)
	if st.Op == "++" || st.Op == "--" {
		by := int64(1)
		if st.Op == "--" {
			by = -1
		}
		return func(in *interp) bool {
			slot := lhs(in)
			switch {
			case slot == nil:
				return false
			case slot.Kind == KFloat:
				*slot = FloatVal(slot.F() + float64(by))
			case slot.Kind == KInt:
				slot.I += by
			}
			return true
		}
	}
	rhs, _ := r.expr(st.RHS)
	bin, compound := binaryOps[strings.TrimSuffix(st.Op, "=")] // "+=" is "+", "<<=" is "<<"; "=" is none
	return func(in *interp) bool {
		slot := lhs(in)
		if slot == nil {
			return false
		}
		v := in.eval(rhs)
		if compound && in.err == nil {
			v, in.err = bin(*slot, v)
		}
		if in.err != nil {
			return false
		}
		*slot = v
		return true
	}
}

// lvalue resolves an assignable location. What is none fails when reached.
func (r *resolver) lvalue(e csrc.Expr) addrFn {
	switch x := e.(type) {
	case *csrc.Ident:
		return r.assignable(x.Name)
	case *csrc.IndexExpr:
		array, _ := r.expr(x.X)
		index, _ := r.expr(x.Index)
		return func(in *interp) *Value {
			base := in.eval(array)
			if in.err != nil {
				return nil
			}
			i := in.eval(index).AsInt()
			switch {
			case in.err != nil:
			case base.Kind == KBuf:
				// writes into malloc'd buffers are symbolic: return a scratch
				// slot (the simulation does not materialize payloads)
				return new(Value)
			case base.Kind != KArray:
				in.err = fmt.Errorf("cinterp: indexing non-array %s", base)
			case i < 0 || i >= int64(len(base.obj.arr)):
				in.err = fmt.Errorf("cinterp: index %d out of range %d", i, len(base.obj.arr))
			default:
				return &base.obj.arr[i]
			}
			return nil
		}
	case *csrc.UnaryExpr:
		if x.Op != "*" {
			break
		}
		pointer, _ := r.expr(x.X)
		return func(in *interp) *Value {
			v := in.eval(pointer)
			switch {
			case in.err != nil:
			case v.Kind == KRef && v.Ref() != nil:
				return v.Ref()
			case v.Kind == KBuf:
				return new(Value)
			default:
				in.err = fmt.Errorf("cinterp: dereference of non-pointer %s", v)
			}
			return nil
		}
	}
	x := failing("cinterp: not an lvalue: %s", csrc.PrintExpr(e))
	return func(in *interp) *Value { x(in); return nil }
}

// loaded resolves an lvalue expression read for its value.
func (r *resolver) loaded(e csrc.Expr) evalFn {
	at := r.lvalue(e)
	return func(in *interp) Value {
		if slot := at(in); slot != nil {
			return slot.load()
		}
		return Value{}
	}
}

// failing is a node that fails the rank that reaches it.
func failing(format string, args ...any) evalFn {
	msg := fmt.Sprintf(format, args...)
	return func(in *interp) Value { return in.fail(errors.New(msg)) }
}

// konst is a node for a constant that stands for steps nodes of the source.
func konst(v Value, steps int64) evalFn {
	return func(in *interp) Value {
		in.charge(steps - 1) // reaching it was one
		return v
	}
}

// fold replaces a node over constants by its value, charged what the tree
// walk charged to get there: a step for each node evaluated. An operation
// that fails stays a node, and fails when a rank reaches it.
func fold(e evalFn, operands ...*Value) (evalFn, *Value) {
	for _, o := range operands {
		if o == nil {
			return e, nil
		}
	}
	dry := interp{maxOps: math.MaxInt64}
	v := e(&dry)
	if dry.err != nil {
		return e, nil
	}
	return konst(v, dry.ops+1), &v
}

// exprs resolves a list, nil if it is.
func (r *resolver) exprs(list []csrc.Expr) (out []evalFn) {
	if list != nil {
		out = make([]evalFn, len(list))
	}
	for i, e := range list {
		out[i], _ = r.expr(e)
	}
	return out
}

// expr resolves an expression, and returns its value too if it is constant.
func (r *resolver) expr(e csrc.Expr) (evalFn, *Value) {
	var v Value
	switch x := e.(type) {
	case nil: // a for loop without a condition, a bare return, a declaration without an initialiser
		return nil, nil
	case *csrc.NumberLit:
		if v = IntVal(x.Int); x.IsFloat {
			v = FloatVal(x.Float)
		}
	case *csrc.StringLit:
		v = StrVal(x.Value)
	case *csrc.CharLit:
		v = IntVal(int64(x.Value))
	case *csrc.SizeofExpr:
		v = IntVal(typeSize(x.Type))
	case *csrc.Ident:
		return r.read(x.Name)
	case *csrc.CastExpr:
		switch {
		case isFloatType(x.Type):
			return r.applied(func(v Value) Value { return FloatVal(v.AsFloat()) }, x.X)
		case strings.HasSuffix(x.Type, "*"): // pointer casts preserve the value
			return r.applied(func(v Value) Value { return v }, x.X)
		}
		return r.applied(func(v Value) Value { return IntVal(v.AsInt()) }, x.X)
	case *csrc.UnaryExpr:
		return r.unary(x)
	case *csrc.BinaryExpr:
		left, kl := r.expr(x.X)
		right, kr := r.expr(x.Y)
		bin, ok := binaryOps[x.Op]
		switch {
		case x.Op == "&&" || x.Op == "||":
			// short-circuit logicals
			or := x.Op == "||"
			return fold(func(in *interp) Value {
				if l := in.eval(left); in.err != nil || l.Truthy() == or {
					return truth(or)
				}
				return truth(in.eval(right).Truthy())
			}, kl, kr)
		case !ok:
			return failing("cinterp: unsupported operator %q", x.Op), nil
		}
		return fold(func(in *interp) Value {
			l := in.eval(left)
			if in.err != nil {
				return l
			}
			r := in.eval(right)
			if in.err == nil {
				l, in.err = bin(l, r)
			}
			return l
		}, kl, kr)
	case *csrc.IndexExpr:
		return r.loaded(e), nil
	case *csrc.CallExpr:
		return r.call(x), nil
	default:
		return failing("cinterp: unsupported expression %T", e), nil
	}
	return konst(v, 1), &v
}

func (r *resolver) unary(x *csrc.UnaryExpr) (evalFn, *Value) {
	switch x.Op {
	case "&":
		at := r.lvalue(x.X)
		return func(in *interp) Value {
			if slot := at(in); slot != nil {
				return Value{Kind: KRef, obj: &object{ref: slot}}
			}
			return Value{}
		}, nil
	case "*":
		return r.loaded(x), nil
	}
	if op, ok := unaryOps[x.Op]; ok {
		return r.applied(op, x.X)
	}
	return failing("cinterp: unary %q unsupported", x.Op), nil
}

// applied resolves a cast or a unary operator, which cannot fail, over its
// operand.
func (r *resolver) applied(op func(Value) Value, x csrc.Expr) (evalFn, *Value) {
	operand, k := r.expr(x)
	return fold(func(in *interp) Value { return op(in.eval(operand)) }, k)
}

// call resolves the callee: a user function before a builtin of the same
// name, and an unknown one only fails the rank that calls it.
func (r *resolver) call(x *csrc.CallExpr) evalFn {
	name, args := x.Fun, x.Args
	if fn := r.funcs[name]; fn != nil {
		r.early = r.early || r.fn == nil
		args := r.exprs(args)
		return func(in *interp) Value { return in.call(fn, args) }
	}
	b, ok := bind(name)
	var dst addrFn
	switch {
	case !ok:
		return failing("cinterp: unknown function %q", name)
	case b.noArgs:
		args = nil
	case b.usage != "" && len(args) < b.nargs:
		return failing("cinterp: %s needs %s", name, b.usage)
	case b.usage != "":
		// the destination is written, not read: an lvalue
		dst = r.lvalue(args[0])
		if args = args[1:]; !b.variadic {
			args = args[:b.nargs-1]
		}
	}
	operands := r.exprs(args)
	return func(in *interp) Value {
		var to *Value
		if dst != nil {
			if to = dst(in); to == nil {
				return Value{}
			}
		}
		base := len(in.stack)
		for _, a := range operands {
			v := in.eval(a)
			if in.err != nil {
				in.stack = in.stack[:base]
				return Value{}
			}
			in.stack = append(in.stack, v)
		}
		var v Value
		v, in.err = b.fn(in, to, in.stack[base:])
		in.stack = in.stack[:base]
		return v
	}
}
