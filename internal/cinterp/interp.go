package cinterp

import (
	"errors"
	"fmt"

	"tunio/internal/csrc"
)

// control-flow sentinels.
var (
	errBreak    = errors.New("cinterp: break")
	errContinue = errors.New("cinterp: continue")
)

type returnSignal struct{ val Value }

func (returnSignal) Error() string { return "cinterp: return" }

// exitSignal is exit(): it unwinds every call, not just the innermost one,
// and ends the rank as a return from main does.
type exitSignal struct{}

func (exitSignal) Error() string { return "cinterp: exit" }

// scope is a lexical variable environment.
type scope struct {
	vars   map[string]*Value
	parent *scope
}

func newScope(parent *scope) *scope {
	return &scope{vars: make(map[string]*Value), parent: parent}
}

func (s *scope) lookup(name string) *Value {
	for cur := s; cur != nil; cur = cur.parent {
		if v, ok := cur.vars[name]; ok {
			return v
		}
	}
	return nil
}

func (s *scope) declare(name string, v Value) *Value {
	slot := new(Value)
	*slot = v
	s.vars[name] = slot
	return slot
}

// interp executes one rank's program.
type interp struct {
	prog    *csrc.File
	rank    int
	nprocs  int
	globals *scope
	spaces  map[int64]*spaceObj // rank-local dataspaces
	plists  map[int64]*plistObj // rank-local property lists
	nextID  int64
	output  []string // printf output (rank 0 retained)
	maxOps  int64    // safety valve against runaway loops
	ops     int64

	log []request // the rank's collective calls, in program order
	err error     // what stopped the rank short of main's return, if anything

	// loop-reduction accounting: original vs actually executed iterations
	// of __loop_reduce-wrapped bounds, for post-run metric scaling
	loopOrig    int64
	loopReduced int64
}

// spaceObj is a rank-local dataspace with an optional hyperslab selection.
type spaceObj struct {
	dims  []int64
	start []int64
	count []int64 // nil = whole space selected
}

// plistObj is a rank-local property list (only chunking is modeled).
type plistObj struct {
	chunk []int64
}

func newInterp(prog *csrc.File, rank, nprocs int, maxOps int64) *interp {
	in := &interp{
		prog:   prog,
		rank:   rank,
		nprocs: nprocs,
		spaces: map[int64]*spaceObj{},
		plists: map[int64]*plistObj{},
		// odd per-rank ID space, disjoint from the merge's even IDs
		nextID: int64(rank+1)<<32 | 1,
		maxOps: maxOps,
	}
	in.globals = newScope(nil)
	for _, g := range prog.Globals {
		v, err := in.declValue(g, in.globals)
		if err == nil {
			in.globals.declare(g.Name, v)
		}
	}
	return in
}

func (in *interp) allocID() int64 {
	id := in.nextID
	in.nextID += 2
	return id
}

// runMain executes main to the end, filling the rank's log; whatever
// stopped it early, other than exit(), is kept in in.err.
func (in *interp) runMain() {
	defer func() {
		if r := recover(); r != nil {
			in.err = fmt.Errorf("cinterp: rank %d panicked: %v", in.rank, r)
		}
	}()
	_, err := in.callFunc(in.prog.Func("main"), nil)
	var exit exitSignal
	if !errors.As(err, &exit) {
		in.err = err
	}
}

// collective logs one call for the merge to execute. What the program
// gets back owes nothing to the other ranks — 0, or for a call that makes
// a handle a fresh rank-local token the merge binds to the shared handle —
// so the rank runs on without waiting for them.
func (in *interp) collective(r request, makesHandle bool) (Value, error) {
	r.rank = in.rank
	if makesHandle {
		r.token = in.allocID()
	}
	in.log = append(in.log, r)
	return IntVal(r.token), nil
}

func (in *interp) callFunc(fn *csrc.FuncDecl, args []Value) (Value, error) {
	sc := newScope(in.globals)
	for i, p := range fn.Params {
		if p.Name == "" {
			continue
		}
		var v Value
		if i < len(args) {
			v = args[i]
		}
		sc.declare(p.Name, v)
	}
	err := in.execBlock(fn.Body, sc)
	var rs returnSignal
	if errors.As(err, &rs) {
		return rs.val, nil
	}
	return Value{}, err
}

func (in *interp) step() error { return in.charge(1) }

// charge books n steps against the rank's budget.
func (in *interp) charge(n int64) error {
	in.ops += n
	if in.ops > in.maxOps {
		return fmt.Errorf("cinterp: rank %d exceeded %d operations (runaway loop?)", in.rank, in.maxOps)
	}
	return nil
}

func (in *interp) execBlock(b *csrc.Block, sc *scope) error {
	inner := newScope(sc)
	for _, s := range b.Stmts {
		if err := in.exec(s, inner); err != nil {
			return err
		}
	}
	return nil
}

func (in *interp) exec(s csrc.Stmt, sc *scope) error {
	if err := in.step(); err != nil {
		return err
	}
	switch st := s.(type) {
	case *csrc.DeclStmt:
		v, err := in.declValue(st, sc)
		if err != nil {
			return err
		}
		sc.declare(st.Name, v)
		return nil
	case *csrc.ExprStmt:
		_, err := in.eval(st.X, sc)
		return err
	case *csrc.AssignStmt:
		return in.execAssign(st, sc)
	case *csrc.Block:
		return in.execBlock(st, sc)
	case *csrc.IfStmt:
		cond, err := in.eval(st.Cond, sc)
		if err != nil {
			return err
		}
		if cond.Truthy() {
			return in.execBlock(st.Then, sc)
		}
		if st.Else != nil {
			return in.execBlock(st.Else, sc)
		}
		return nil
	case *csrc.ForStmt:
		loopScope := newScope(sc)
		if st.Init != nil {
			if err := in.exec(st.Init, loopScope); err != nil {
				return err
			}
		}
		for {
			if st.Cond != nil {
				c, err := in.eval(st.Cond, loopScope)
				if err != nil {
					return err
				}
				if !c.Truthy() {
					return nil
				}
			}
			err := in.execBlock(st.Body, loopScope)
			switch {
			case err == nil:
			case errors.Is(err, errBreak):
				return nil
			case errors.Is(err, errContinue):
			default:
				return err
			}
			// the back-edge: a loop with no condition, no post and an empty
			// body evaluates nothing else
			if err := in.step(); err != nil {
				return err
			}
			if st.Post != nil {
				if err := in.exec(st.Post, loopScope); err != nil {
					return err
				}
			}
		}
	case *csrc.WhileStmt:
		for {
			c, err := in.eval(st.Cond, sc)
			if err != nil {
				return err
			}
			if !c.Truthy() {
				return nil
			}
			err = in.execBlock(st.Body, sc)
			switch {
			case err == nil:
			case errors.Is(err, errBreak):
				return nil
			case errors.Is(err, errContinue):
			default:
				return err
			}
		}
	case *csrc.ReturnStmt:
		var v Value
		if st.X != nil {
			var err error
			v, err = in.eval(st.X, sc)
			if err != nil {
				return err
			}
		}
		return returnSignal{val: v}
	case *csrc.BreakStmt:
		return errBreak
	case *csrc.ContinueStmt:
		return errContinue
	default:
		return fmt.Errorf("cinterp: unsupported statement %T", s)
	}
}

func (in *interp) declValue(st *csrc.DeclStmt, sc *scope) (Value, error) {
	if st.ArrayLen != nil || st.InitList != nil {
		n := int64(len(st.InitList))
		if st.ArrayLen != nil {
			lv, err := in.eval(st.ArrayLen, sc)
			if err != nil {
				return Value{}, err
			}
			n = lv.AsInt()
		}
		if n < 0 || n > 1<<20 {
			return Value{}, fmt.Errorf("cinterp: array %s has unreasonable length %d", st.Name, n)
		}
		// an array costs its length: steps bound the rank's work, and
		// zeroing n elements is n of it
		if err := in.charge(n); err != nil {
			return Value{}, err
		}
		if st.InitList == nil {
			// Nothing reads it yet, and `char path[256]` may only ever be
			// sprintf'd over: it stays a length until something does (load).
			return unreadArray(n, isFloatType(st.Type)), nil
		}
		arr := zeroArray(n, isFloatType(st.Type))
		for i, e := range st.InitList {
			if int64(i) >= n {
				break
			}
			v, err := in.eval(e, sc)
			if err != nil {
				return Value{}, err
			}
			arr[i] = v
		}
		return Value{Kind: KArray, Arr: arr}, nil
	}
	if st.Init != nil {
		return in.eval(st.Init, sc)
	}
	if isFloatType(st.Type) {
		return FloatVal(0), nil
	}
	return IntVal(0), nil
}

func (in *interp) execAssign(st *csrc.AssignStmt, sc *scope) error {
	slot, err := in.lvalue(st.LHS, sc)
	if err != nil {
		return err
	}
	switch st.Op {
	case "++":
		if slot.Kind == KFloat {
			slot.F++
		} else {
			slot.I++
		}
		return nil
	case "--":
		if slot.Kind == KFloat {
			slot.F--
		} else {
			slot.I--
		}
		return nil
	}
	rhs, err := in.eval(st.RHS, sc)
	if err != nil {
		return err
	}
	if st.Op == "=" {
		*slot = rhs
		return nil
	}
	op := st.Op[:1] // "+=" -> "+"
	nv, err := binaryOp(op, *slot, rhs)
	if err != nil {
		return err
	}
	*slot = nv
	return nil
}

// lvalue resolves an assignable location.
func (in *interp) lvalue(e csrc.Expr, sc *scope) (*Value, error) {
	switch x := e.(type) {
	case *csrc.Ident:
		if slot := sc.lookup(x.Name); slot != nil {
			return slot, nil
		}
		// implicit declaration tolerated for kernel robustness
		return sc.declare(x.Name, IntVal(0)), nil
	case *csrc.IndexExpr:
		base, err := in.eval(x.X, sc)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(x.Index, sc)
		if err != nil {
			return nil, err
		}
		if base.Kind == KBuf {
			// writes into malloc'd buffers are symbolic: return a scratch
			// slot (the simulation does not materialize payloads)
			return new(Value), nil
		}
		if base.Kind != KArray {
			return nil, fmt.Errorf("cinterp: indexing non-array %s", base)
		}
		i := idx.AsInt()
		if i < 0 || i >= int64(len(base.Arr)) {
			return nil, fmt.Errorf("cinterp: index %d out of range %d", i, len(base.Arr))
		}
		return &base.Arr[i], nil
	case *csrc.UnaryExpr:
		if x.Op == "*" {
			v, err := in.eval(x.X, sc)
			if err != nil {
				return nil, err
			}
			if v.Kind == KRef && v.Ref != nil {
				return v.Ref, nil
			}
			if v.Kind == KBuf {
				return new(Value), nil
			}
			return nil, fmt.Errorf("cinterp: dereference of non-pointer %s", v)
		}
	}
	return nil, fmt.Errorf("cinterp: not an lvalue: %s", csrc.PrintExpr(e))
}

func (in *interp) eval(e csrc.Expr, sc *scope) (Value, error) {
	if err := in.step(); err != nil {
		return Value{}, err
	}
	switch x := e.(type) {
	case *csrc.NumberLit:
		if x.IsFloat {
			return FloatVal(x.Float), nil
		}
		return IntVal(x.Int), nil
	case *csrc.StringLit:
		return StrVal(x.Value), nil
	case *csrc.CharLit:
		return IntVal(int64(x.Value)), nil
	case *csrc.Ident:
		if slot := sc.lookup(x.Name); slot != nil {
			return slot.load(), nil
		}
		if v, ok := constants[x.Name]; ok {
			return v, nil
		}
		return Value{}, fmt.Errorf("cinterp: undefined variable %q", x.Name)
	case *csrc.SizeofExpr:
		return IntVal(typeSize(x.Type)), nil
	case *csrc.CastExpr:
		v, err := in.eval(x.X, sc)
		if err != nil {
			return Value{}, err
		}
		if isFloatType(x.Type) {
			return FloatVal(v.AsFloat()), nil
		}
		if x.Type[len(x.Type)-1] == '*' {
			return v, nil // pointer casts preserve the value
		}
		return IntVal(v.AsInt()), nil
	case *csrc.UnaryExpr:
		switch x.Op {
		case "&":
			slot, err := in.lvalue(x.X, sc)
			if err != nil {
				return Value{}, err
			}
			return Value{Kind: KRef, Ref: slot}, nil
		case "*":
			slot, err := in.lvalue(e, sc)
			if err != nil {
				return Value{}, err
			}
			return slot.load(), nil
		}
		v, err := in.eval(x.X, sc)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case "-":
			if v.Kind == KFloat {
				return FloatVal(-v.F), nil
			}
			return IntVal(-v.AsInt()), nil
		case "!":
			if v.Truthy() {
				return IntVal(0), nil
			}
			return IntVal(1), nil
		case "~":
			return IntVal(^v.AsInt()), nil
		}
		return Value{}, fmt.Errorf("cinterp: unary %q unsupported", x.Op)
	case *csrc.BinaryExpr:
		// short-circuit logicals
		if x.Op == "&&" || x.Op == "||" {
			l, err := in.eval(x.X, sc)
			if err != nil {
				return Value{}, err
			}
			if x.Op == "&&" && !l.Truthy() {
				return IntVal(0), nil
			}
			if x.Op == "||" && l.Truthy() {
				return IntVal(1), nil
			}
			r, err := in.eval(x.Y, sc)
			if err != nil {
				return Value{}, err
			}
			if r.Truthy() {
				return IntVal(1), nil
			}
			return IntVal(0), nil
		}
		l, err := in.eval(x.X, sc)
		if err != nil {
			return Value{}, err
		}
		r, err := in.eval(x.Y, sc)
		if err != nil {
			return Value{}, err
		}
		return binaryOp(x.Op, l, r)
	case *csrc.IndexExpr:
		slot, err := in.lvalue(e, sc)
		if err != nil {
			return Value{}, err
		}
		return slot.load(), nil
	case *csrc.CallExpr:
		return in.call(x, sc)
	}
	return Value{}, fmt.Errorf("cinterp: unsupported expression %T", e)
}

func (in *interp) call(x *csrc.CallExpr, sc *scope) (Value, error) {
	// user-defined functions
	if fn := in.prog.Func(x.Fun); fn != nil {
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			v, err := in.eval(a, sc)
			if err != nil {
				return Value{}, err
			}
			args[i] = v
		}
		return in.callFunc(fn, args)
	}
	return in.builtin(x, sc)
}

func binaryOp(op string, l, r Value) (Value, error) {
	useFloat := l.Kind == KFloat || r.Kind == KFloat
	switch op {
	case "+", "-", "*", "/", "%":
		if useFloat {
			a, b := l.AsFloat(), r.AsFloat()
			switch op {
			case "+":
				return FloatVal(a + b), nil
			case "-":
				return FloatVal(a - b), nil
			case "*":
				return FloatVal(a * b), nil
			case "/":
				if b == 0 {
					return Value{}, fmt.Errorf("cinterp: float division by zero")
				}
				return FloatVal(a / b), nil
			case "%":
				return Value{}, fmt.Errorf("cinterp: %% on floats")
			}
		}
		a, b := l.AsInt(), r.AsInt()
		switch op {
		case "+":
			return IntVal(a + b), nil
		case "-":
			return IntVal(a - b), nil
		case "*":
			return IntVal(a * b), nil
		case "/":
			if b == 0 {
				return Value{}, fmt.Errorf("cinterp: division by zero")
			}
			return IntVal(a / b), nil
		case "%":
			if b == 0 {
				return Value{}, fmt.Errorf("cinterp: modulo by zero")
			}
			return IntVal(a % b), nil
		}
	case "<", ">", "<=", ">=", "==", "!=":
		a, b := l.AsFloat(), r.AsFloat()
		var res bool
		switch op {
		case "<":
			res = a < b
		case ">":
			res = a > b
		case "<=":
			res = a <= b
		case ">=":
			res = a >= b
		case "==":
			res = a == b
		case "!=":
			res = a != b
		}
		if res {
			return IntVal(1), nil
		}
		return IntVal(0), nil
	case "<<", ">>", "&", "|", "^":
		a, b := l.AsInt(), r.AsInt()
		switch op {
		case "<<":
			return IntVal(a << uint(b&63)), nil
		case ">>":
			return IntVal(a >> uint(b&63)), nil
		case "&":
			return IntVal(a & b), nil
		case "|":
			return IntVal(a | b), nil
		case "^":
			return IntVal(a ^ b), nil
		}
	}
	return Value{}, fmt.Errorf("cinterp: unsupported operator %q", op)
}

// constants the workloads reference (HDF5/MPI macro equivalents).
var constants = map[string]Value{
	"NULL":               IntVal(0),
	"MPI_COMM_WORLD":     IntVal(0),
	"MPI_INFO_NULL":      IntVal(0),
	"H5F_ACC_TRUNC":      IntVal(1),
	"H5F_ACC_RDONLY":     IntVal(0),
	"H5F_ACC_RDWR":       IntVal(2),
	"H5P_DEFAULT":        IntVal(0),
	"H5T_NATIVE_DOUBLE":  IntVal(1),
	"H5T_NATIVE_INT":     IntVal(2),
	"H5T_NATIVE_LONG":    IntVal(3),
	"H5S_ALL":            IntVal(0),
	"H5S_SELECT_SET":     IntVal(0),
	"H5P_DATASET_CREATE": IntVal(1),
	"H5P_FILE_ACCESS":    IntVal(2),
	"H5P_DATASET_XFER":   IntVal(3),
}
