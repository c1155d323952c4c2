package cinterp

import (
	"errors"
	"fmt"
)

// What stops a rank is in interp.err: a failure, or one of these while a
// break, continue, return or exit() is on its way to whatever ends it.
var (
	errBreak    = errors.New("cinterp: break")
	errContinue = errors.New("cinterp: continue")
	errReturn   = errors.New("cinterp: return")
	errExit     = errors.New("cinterp: exit")
	errBudget   = errors.New("cinterp: step budget exceeded") // runMain words it
)

// maxDepth bounds the calls a rank may have open at once. The deepest chain
// a program of the corpus completes is 13 (quirk/07's fib(12) under main),
// and a 20 000-step budget runs out before depth 2 100; past the limit the
// Go stack under the interpreter, not the step budget, is what gives way.
const maxDepth = 10_000

// interp runs one rank over the resolved program.
type interp struct {
	prog    *program
	rank    int
	nprocs  int
	globals []Value  // the global table
	frame   []Value  // the running call's variables, and the elements of its short arrays
	objs    []object // ... and the arrays
	depth   int      // calls open
	ret     Value    // the value a return is carrying (err == errReturn)
	*scratch
	nextID int64
	ints   []int64  // what intSlice has left of the block it cuts its results from
	output []string // printf output (rank 0 retained)
	maxOps int64    // safety valve against runaway loops
	ops    int64

	log []request // the rank's collective calls, in program order
	err error     // what stopped the rank short of main's return, if anything

	// loop-reduction accounting: original vs actually executed iterations
	// of __loop_reduce-wrapped bounds, for post-run metric scaling
	loopOrig    int64
	loopReduced int64
}

// scratch is what a rank needs only while it runs; the ranks of a Run use
// one after another.
type scratch struct {
	stack  []Value            // operands: the arguments of the builtin calls being evaluated
	spaces map[int64]spaceObj // rank-local dataspaces
	plists map[int64]plistObj // rank-local property lists
}

func newScratch() *scratch {
	return &scratch{spaces: map[int64]spaceObj{}, plists: map[int64]plistObj{}}
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

func newInterp(prog *program, rank, nprocs int, maxOps int64, sc *scratch) *interp {
	clear(sc.spaces)
	clear(sc.plists)
	sc.stack = sc.stack[:0]
	in := &interp{
		prog:    prog,
		rank:    rank,
		nprocs:  nprocs,
		globals: make([]Value, prog.nglobals),
		scratch: sc,
		// odd per-rank ID space, disjoint from the merge's even IDs
		nextID: int64(rank+1)<<32 | 1,
		maxOps: maxOps,
	}
	for i := range in.globals {
		in.globals[i].Kind = kUnset
	}
	return in
}

func (in *interp) allocID() int64 {
	id := in.nextID
	in.nextID += 2
	return id
}

// runMain initialises the globals and executes main to the end, filling the
// rank's log; whatever stopped it early, other than exit(), is kept in
// in.err.
func (in *interp) runMain() {
	defer func() {
		if r := recover(); r != nil {
			in.err = fmt.Errorf("cinterp: rank %d panicked: %v", in.rank, r)
		} else if in.err == errBudget {
			in.err = fmt.Errorf("cinterp: rank %d exceeded %d operations (runaway loop?)", in.rank, in.maxOps)
		} else if in.err == errExit {
			in.err = nil
		}
	}()
	for _, g := range in.prog.globals {
		if !g(in) {
			return
		}
	}
	in.call(in.prog.main, nil)
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

// fail stops the rank.
func (in *interp) fail(err error) Value {
	in.err = err
	return Value{}
}

// charge books n steps against the rank's budget: every statement and
// every expression node a rank reaches is one, and so is a for loop's
// back-edge; an array is its length; a constant the resolver folded is the
// nodes it replaced. It is the one place a rank's work is bounded.
func (in *interp) charge(n int64) bool {
	if in.ops += n; in.ops > in.maxOps {
		in.err = errBudget
	}
	return in.ops <= in.maxOps
}

// slot addresses a variable of the running call, or a global.
func (in *interp) slot(s int32) *Value {
	if s < 0 {
		return &in.globals[^s]
	}
	return &in.frame[s]
}

// call runs fn over a new frame holding the arguments. It is the one place
// the depth of a rank's recursion is counted.
func (in *interp) call(fn *function, args []evalFn) Value {
	frame := make([]Value, fn.nslots)
	for i, a := range args {
		v := in.eval(a)
		if in.err != nil {
			return Value{}
		}
		if i < len(fn.params) && fn.params[i] >= 0 {
			frame[fn.params[i]] = v
		}
	}
	if in.depth == maxDepth {
		return in.fail(fmt.Errorf("cinterp: rank %d exceeded %d nested calls (runaway recursion?)", in.rank, maxDepth))
	}
	caller, objs := in.frame, in.objs
	in.frame, in.objs = frame, make([]object, fn.nobjs)
	in.depth++
	fn.body(in)
	in.frame, in.objs = caller, objs
	in.depth--
	if in.err != errReturn {
		return Value{}
	}
	in.err = nil
	return in.ret
}

// iterate runs a loop's body once and reports whether the loop goes on to
// its next iteration; if not, in.err says whether the loop ended (nil, a
// break) or the rank did.
func (in *interp) iterate(body execFn) bool {
	if body(in) {
		return true
	}
	stop := in.err != errContinue
	if in.err == errBreak || in.err == errContinue {
		in.err = nil
	}
	return !stop
}

// cond evaluates a loop's or a branch's condition.
func (in *interp) cond(e evalFn) bool {
	v := in.eval(e)
	return in.err == nil && v.Truthy()
}

// eval reaches an expression node, exec a statement: a step each.
func (in *interp) eval(e evalFn) Value {
	if !in.charge(1) {
		return Value{}
	}
	return e(in)
}

func (in *interp) exec(s execFn) bool { return in.charge(1) && s(in) }

func truth(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

// firstSet is the first of the slots that is not unset, nil if none is.
func (in *interp) firstSet(slots []int32) *Value {
	for _, s := range slots {
		if v := in.slot(s); v.Kind != kUnset {
			return v
		}
	}
	return nil
}

// unaryOps are the unary operators but & and *.
var unaryOps = map[string]func(Value) Value{
	"-": func(v Value) Value {
		if v.Kind == KFloat {
			return FloatVal(-v.F())
		}
		return IntVal(-v.AsInt())
	},
	"!": func(v Value) Value { return truth(!v.Truthy()) },
	"~": func(v Value) Value { return IntVal(^v.AsInt()) },
}

// binaryOps are the binary operators but the short-circuit && and ||.
var binaryOps = map[string]func(l, r Value) (Value, error){
	"+": arith(func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b }),
	"-": arith(func(a, b int64) int64 { return a - b }, func(a, b float64) float64 { return a - b }),
	"*": arith(func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b }),
	"/": func(l, r Value) (Value, error) {
		switch isFloat := l.Kind == KFloat || r.Kind == KFloat; {
		case isFloat && r.AsFloat() == 0:
			return Value{}, fmt.Errorf("cinterp: float division by zero")
		case isFloat:
			return FloatVal(l.AsFloat() / r.AsFloat()), nil
		case r.AsInt() == 0:
			return Value{}, fmt.Errorf("cinterp: division by zero")
		}
		return IntVal(l.AsInt() / r.AsInt()), nil
	},
	"%": func(l, r Value) (Value, error) {
		switch {
		case l.Kind == KFloat || r.Kind == KFloat:
			return Value{}, fmt.Errorf("cinterp: %% on floats")
		case r.AsInt() == 0:
			return Value{}, fmt.Errorf("cinterp: modulo by zero")
		}
		return IntVal(l.AsInt() % r.AsInt()), nil
	},
	"<":  compare(func(a, b float64) bool { return a < b }),
	">":  compare(func(a, b float64) bool { return a > b }),
	"<=": compare(func(a, b float64) bool { return a <= b }),
	">=": compare(func(a, b float64) bool { return a >= b }),
	"==": compare(func(a, b float64) bool { return a == b }),
	"!=": compare(func(a, b float64) bool { return a != b }),
	"<<": arith(func(a, b int64) int64 { return a << uint(b&63) }, nil),
	">>": arith(func(a, b int64) int64 { return a >> uint(b&63) }, nil),
	"&":  arith(func(a, b int64) int64 { return a & b }, nil),
	"|":  arith(func(a, b int64) int64 { return a | b }, nil),
	"^":  arith(func(a, b int64) int64 { return a ^ b }, nil),
}

// arith is an operator on ints, and if either operand is a float on floats
// (onFloats nil: on ints whatever the operands are).
func arith(onInts func(a, b int64) int64, onFloats func(a, b float64) float64) func(l, r Value) (Value, error) {
	return func(l, r Value) (Value, error) {
		if onFloats != nil && (l.Kind == KFloat || r.Kind == KFloat) {
			return FloatVal(onFloats(l.AsFloat(), r.AsFloat())), nil
		}
		return IntVal(onInts(l.AsInt(), r.AsInt())), nil
	}
}

func compare(holds func(a, b float64) bool) func(l, r Value) (Value, error) {
	return func(l, r Value) (Value, error) { return truth(holds(l.AsFloat(), r.AsFloat())), nil }
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
