package analysis

import (
	"fmt"
	"math"
	"strings"

	"tunio/internal/csrc"
)

// Integer interval analysis: a forward abstract interpretation over each
// function's CFG that bounds, per program point, the value of every integer
// local. The domain is the classic interval lattice — possibly unbounded on
// either side — with widening at loop headers (so the infinite ascending
// chains of the domain terminate) followed by a bounded narrowing pass that
// recovers finite loop bounds the widening threw away. Conditional edges
// refine the intervals flowing along them (the true edge of i < n clamps i
// below n), which is what turns loop conditions into trip-count facts.
//
// The pass is interprocedural through per-function summaries mirroring the
// constprop pass: paramIv joins the abstract arguments of every call site
// and retIv joins the values of every reachable return. Summaries start at
// ⊤ (sound from round one) and are re-derived for a bounded number of
// rounds; whatever round they stop in, a final per-function pass records
// statement envs consistent with the last summaries, so the recorded facts
// are always sound — extra rounds only sharpen them.
//
// The trip-count analysis (bounds.go), the I/O signature builder
// (signature.go), and the TR006/TR007 verifier checks are all clients.

// Interval is a set of int64 values {v | Lo <= v <= Hi}, either bound
// optionally missing. Normal form: when Empty is set every other field is
// zero, and when LoUnb (resp. HiUnb) is set Lo (resp. Hi) is zero — so ==
// compares abstract values, not representations. Build intervals with the
// constructors; the zero value is the single point 0, not ⊤.
type Interval struct {
	Empty        bool
	LoUnb, HiUnb bool
	Lo, Hi       int64
}

// TopInterval returns the full range (no information).
func TopInterval() Interval { return Interval{LoUnb: true, HiUnb: true} }

// EmptyInterval returns ⊥, the empty set (unreached / infeasible).
func EmptyInterval() Interval { return Interval{Empty: true} }

// ConstInterval returns the single point v.
func ConstInterval(v int64) Interval { return Interval{Lo: v, Hi: v} }

// RangeInterval returns [lo, hi]; lo > hi yields the empty interval.
func RangeInterval(lo, hi int64) Interval {
	if lo > hi {
		return EmptyInterval()
	}
	return Interval{Lo: lo, Hi: hi}
}

// ivBound is one interval endpoint: inf is -1 for -∞, +1 for +∞, 0 finite.
type ivBound struct {
	inf int
	v   int64
}

var (
	negInfB = ivBound{inf: -1}
	posInfB = ivBound{inf: +1}
)

func finiteB(v int64) ivBound { return ivBound{v: v} }

func (i Interval) lob() ivBound {
	if i.LoUnb {
		return negInfB
	}
	return finiteB(i.Lo)
}

func (i Interval) hib() ivBound {
	if i.HiUnb {
		return posInfB
	}
	return finiteB(i.Hi)
}

// cmpB orders bounds: -1, 0, +1 as a < b, a == b, a > b.
func cmpB(a, b ivBound) int {
	if a.inf != b.inf {
		if a.inf < b.inf {
			return -1
		}
		return 1
	}
	if a.inf != 0 || a.v == b.v {
		return 0
	}
	if a.v < b.v {
		return -1
	}
	return 1
}

func minB(a, b ivBound) ivBound {
	if cmpB(a, b) <= 0 {
		return a
	}
	return b
}

func maxB(a, b ivBound) ivBound {
	if cmpB(a, b) >= 0 {
		return a
	}
	return b
}

// fromBounds builds a normal-form interval; an inverted pair is empty.
func fromBounds(lo, hi ivBound) Interval {
	if lo.inf > 0 || hi.inf < 0 || (lo.inf == 0 && hi.inf == 0 && lo.v > hi.v) {
		return EmptyInterval()
	}
	out := Interval{}
	if lo.inf < 0 {
		out.LoUnb = true
	} else {
		out.Lo = lo.v
	}
	if hi.inf > 0 {
		out.HiUnb = true
	} else {
		out.Hi = hi.v
	}
	return out
}

// IsTop reports whether the interval carries no information.
func (i Interval) IsTop() bool { return !i.Empty && i.LoUnb && i.HiUnb }

// IsConst reports the single value the interval holds, if exactly one.
func (i Interval) IsConst() (int64, bool) {
	if i.Empty || i.LoUnb || i.HiUnb || i.Lo != i.Hi {
		return 0, false
	}
	return i.Lo, true
}

// Contains reports whether v is a member.
func (i Interval) Contains(v int64) bool {
	if i.Empty {
		return false
	}
	return (i.LoUnb || i.Lo <= v) && (i.HiUnb || v <= i.Hi)
}

// ContainsInterval reports whether every member of o is a member of i.
func (i Interval) ContainsInterval(o Interval) bool {
	if o.Empty {
		return true
	}
	if i.Empty {
		return false
	}
	return cmpB(i.lob(), o.lob()) <= 0 && cmpB(i.hib(), o.hib()) >= 0
}

// String renders the interval for diagnostics: "[0, 7]", "[8, +inf)", "{}".
func (i Interval) String() string {
	if i.Empty {
		return "{}"
	}
	var b strings.Builder
	if i.LoUnb {
		b.WriteString("(-inf, ")
	} else {
		fmt.Fprintf(&b, "[%d, ", i.Lo)
	}
	if i.HiUnb {
		b.WriteString("+inf)")
	} else {
		fmt.Fprintf(&b, "%d]", i.Hi)
	}
	return b.String()
}

// JoinIntervals returns the convex hull of a and b (the lattice join).
func JoinIntervals(a, b Interval) Interval {
	if a.Empty {
		return b
	}
	if b.Empty {
		return a
	}
	return fromBounds(minB(a.lob(), b.lob()), maxB(a.hib(), b.hib()))
}

// MeetIntervals returns the intersection of a and b (the lattice meet).
func MeetIntervals(a, b Interval) Interval {
	if a.Empty || b.Empty {
		return EmptyInterval()
	}
	return fromBounds(maxB(a.lob(), b.lob()), minB(a.hib(), b.hib()))
}

// WidenInterval is the standard interval widening: a bound of next that
// grew past prev jumps to infinity, a stable bound keeps prev's value. The
// result contains both operands and WidenInterval(WidenInterval(a,b), b)
// == WidenInterval(a,b), which is what bounds the ascending iteration.
func WidenInterval(prev, next Interval) Interval {
	if prev.Empty {
		return next
	}
	if next.Empty {
		return prev
	}
	lo := prev.lob()
	if cmpB(next.lob(), lo) < 0 {
		lo = negInfB
	}
	hi := prev.hib()
	if cmpB(next.hib(), hi) > 0 {
		hi = posInfB
	}
	return fromBounds(lo, hi)
}

// NarrowInterval refines prev's unbounded ends with next's bounds (the
// standard narrowing): finite bounds won by the ascending phase are kept.
func NarrowInterval(prev, next Interval) Interval {
	if prev.Empty || next.Empty {
		return next
	}
	lo := prev.lob()
	if prev.LoUnb {
		lo = next.lob()
	}
	hi := prev.hib()
	if prev.HiUnb {
		hi = next.hib()
	}
	return fromBounds(lo, hi)
}

// --- saturating bound arithmetic -------------------------------------------

// addB adds two bounds; a finite overflow escapes to the infinity matching
// the overflow direction, which is sound for either endpoint.
func addB(a, b ivBound) ivBound {
	if a.inf != 0 {
		return a
	}
	if b.inf != 0 {
		return b
	}
	s := a.v + b.v
	if a.v > 0 && b.v > 0 && s < 0 {
		return posInfB
	}
	if a.v < 0 && b.v < 0 && s >= 0 {
		return negInfB
	}
	return finiteB(s)
}

func negB(a ivBound) ivBound {
	if a.inf != 0 {
		return ivBound{inf: -a.inf}
	}
	if a.v == math.MinInt64 {
		return posInfB
	}
	return finiteB(-a.v)
}

// addInterval returns {x+y | x ∈ a, y ∈ b}.
func addInterval(a, b Interval) Interval {
	if a.Empty || b.Empty {
		return EmptyInterval()
	}
	return fromBounds(addB(a.lob(), b.lob()), addB(a.hib(), b.hib()))
}

// subInterval returns {x-y | x ∈ a, y ∈ b}.
func subInterval(a, b Interval) Interval {
	if a.Empty || b.Empty {
		return EmptyInterval()
	}
	return fromBounds(addB(a.lob(), negB(b.hib())), addB(a.hib(), negB(b.lob())))
}

func negInterval(a Interval) Interval {
	if a.Empty {
		return a
	}
	return fromBounds(negB(a.hib()), negB(a.lob()))
}

// mulInterval returns the hull of the endpoint products; any overflow
// falls back to ⊤ (sound, and rare in real bounds).
func mulInterval(a, b Interval) Interval {
	if a.Empty || b.Empty {
		return EmptyInterval()
	}
	bounds := [2]ivBound{}
	first := true
	for _, x := range [2]ivBound{a.lob(), a.hib()} {
		for _, y := range [2]ivBound{b.lob(), b.hib()} {
			p, ok := mulB(x, y)
			if !ok {
				return TopInterval()
			}
			if first {
				bounds[0], bounds[1] = p, p
				first = false
			} else {
				bounds[0] = minB(bounds[0], p)
				bounds[1] = maxB(bounds[1], p)
			}
		}
	}
	return fromBounds(bounds[0], bounds[1])
}

// mulB multiplies two bounds; 0 × ∞ is 0 (the interval convention).
func mulB(a, b ivBound) (ivBound, bool) {
	if a.inf == 0 && a.v == 0 {
		return finiteB(0), true
	}
	if b.inf == 0 && b.v == 0 {
		return finiteB(0), true
	}
	sign := func(x ivBound) int {
		if x.inf != 0 {
			return x.inf
		}
		if x.v > 0 {
			return 1
		}
		return -1
	}
	if a.inf != 0 || b.inf != 0 {
		return ivBound{inf: sign(a) * sign(b)}, true
	}
	p := a.v * b.v
	if p/b.v != a.v {
		return ivBound{}, false
	}
	return finiteB(p), true
}

// divInterval models C truncated division conservatively: a divisor whose
// interval touches zero, or mixed infinite shapes, yield ⊤.
func divInterval(a, b Interval) Interval {
	if a.Empty || b.Empty {
		return EmptyInterval()
	}
	if b.Contains(0) {
		return TopInterval()
	}
	if c, ok := b.IsConst(); ok {
		// a constant divisor keeps monotone shape even on unbounded a
		lo, hi := divB(a.lob(), c), divB(a.hib(), c)
		if c < 0 {
			lo, hi = hi, lo
		}
		return fromBounds(lo, hi)
	}
	if a.LoUnb || a.HiUnb || b.LoUnb || b.HiUnb {
		return TopInterval()
	}
	vals := []int64{a.Lo / b.Lo, a.Lo / b.Hi, a.Hi / b.Lo, a.Hi / b.Hi}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return RangeInterval(lo, hi)
}

func divB(a ivBound, c int64) ivBound {
	if a.inf != 0 {
		if c < 0 {
			return ivBound{inf: -a.inf}
		}
		return a
	}
	if a.v == math.MinInt64 && c == -1 {
		return posInfB
	}
	return finiteB(a.v / c)
}

// modInterval models C remainder: exact on constants, [0, c-1] when the
// dividend is provably non-negative and the divisor a positive constant.
func modInterval(a, b Interval) Interval {
	if a.Empty || b.Empty {
		return EmptyInterval()
	}
	av, aok := a.IsConst()
	bv, bok := b.IsConst()
	if aok && bok && bv != 0 {
		return ConstInterval(av % bv)
	}
	if bok && bv > 0 && !a.LoUnb && a.Lo >= 0 {
		return RangeInterval(0, bv-1)
	}
	return TopInterval()
}

// --- dataflow environment ---------------------------------------------------

// ivEnv maps variable names to intervals; a missing key is ⊤.
type ivEnv map[string]Interval

func (e ivEnv) get(v string) Interval {
	if iv, ok := e[v]; ok {
		return iv
	}
	return TopInterval()
}

// set stores iv, dropping ⊤ entries to keep the maps comparable.
func (e ivEnv) set(v string, iv Interval) {
	if iv.IsTop() {
		delete(e, v)
		return
	}
	e[v] = iv
}

func (e ivEnv) clone() ivEnv {
	out := make(ivEnv, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// joinIvEnv joins pointwise; a key missing on either side is ⊤ and stays ⊤.
func joinIvEnv(a, b ivEnv) ivEnv {
	out := make(ivEnv)
	for k, va := range a {
		if vb, ok := b[k]; ok {
			out.set(k, JoinIntervals(va, vb))
		}
	}
	return out
}

// widenIvEnv widens pointwise against the previous header input.
func widenIvEnv(prev, next ivEnv) ivEnv {
	out := make(ivEnv)
	for k, pv := range prev {
		if nv, ok := next[k]; ok {
			out.set(k, WidenInterval(pv, nv))
		}
	}
	return out
}

// narrowIvEnv narrows pointwise; keys the recomputation lost keep their
// ascending-phase value (still an over-approximation).
func narrowIvEnv(prev, next ivEnv) ivEnv {
	out := make(ivEnv)
	for k, nv := range next {
		out.set(k, NarrowInterval(prev.get(k), nv))
	}
	for k, pv := range prev {
		if _, ok := next[k]; !ok {
			out.set(k, pv)
		}
	}
	return out
}

func sameIvEnv(a, b ivEnv) bool {
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

// --- the analysis -----------------------------------------------------------

// Intervals is the computed interval analysis for one file. Build it with
// NewIntervals and query program points with At.
type Intervals struct {
	file   *csrc.File
	locals map[string]map[string]bool

	// globalInt holds file-scope integers provably constant for the whole
	// run: a foldable initializer and no definition anywhere else.
	globalInt map[string]int64

	// interprocedural summaries, re-derived for a bounded number of rounds
	paramIv map[string][]Interval
	retIv   map[string]Interval

	stmtIn map[int]ivEnv  // statement ID -> env just before it
	stmtFn map[int]string // statement ID -> enclosing function

	callSites map[string][]callSite
	returns   map[string][]*csrc.ReturnStmt
}

// NewIntervals runs the analysis over a parsed file.
func NewIntervals(f *csrc.File) *Intervals {
	p := &Intervals{
		file:      f,
		locals:    LocalNames(f),
		globalInt: map[string]int64{},
		paramIv:   map[string][]Interval{},
		retIv:     map[string]Interval{},
		callSites: map[string][]callSite{},
		returns:   map[string][]*csrc.ReturnStmt{},
	}
	p.collectGlobalInts()
	p.collectSites()
	for _, fn := range f.Funcs {
		pv := make([]Interval, len(fn.Params))
		for i := range pv {
			pv[i] = TopInterval()
		}
		p.paramIv[fn.Name] = pv
		p.retIv[fn.Name] = TopInterval()
	}

	// Summaries start at ⊤, so every round's facts are sound under the
	// previous round's summaries (round zero trivially so). Re-deriving can
	// only exploit — never depend on — unsound information; the cap merely
	// stops refinement, after which one more pass records statement envs
	// consistent with whatever the summaries last were.
	maxRounds := len(f.Funcs) + 4
	for round := 0; round < maxRounds; round++ {
		p.analyzeAll()
		if !p.updateSummaries() {
			return p
		}
	}
	p.analyzeAll()
	return p
}

func (p *Intervals) analyzeAll() {
	p.stmtIn = map[int]ivEnv{}
	p.stmtFn = map[int]string{}
	for _, fn := range p.file.Funcs {
		p.analyzeFunc(fn)
	}
}

// At returns the interval of e just before s executes. Statements the
// analysis proved unreachable report the empty interval.
func (p *Intervals) At(s csrc.Stmt, e csrc.Expr) Interval {
	if s == nil {
		return TopInterval()
	}
	id := s.Base().ID
	envAt, ok := p.stmtIn[id]
	if !ok {
		return EmptyInterval()
	}
	return p.eval(e, envAt, p.stmtFn[id])
}

func (p *Intervals) collectGlobalInts() {
	redefined := map[string]bool{}
	for _, fn := range p.file.Funcs {
		loc := p.locals[fn.Name]
		walkFuncStmts(fn, func(s csrc.Stmt) bool {
			for _, v := range clobberedNames(p.locals, s, fn.Name) {
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
		if n, ok := foldInt(g.Init); ok {
			p.globalInt[g.Name] = n
		}
	}
}

func (p *Intervals) collectSites() {
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

// updateSummaries re-derives the interprocedural summaries from the
// recorded envs and reports whether anything changed.
func (p *Intervals) updateSummaries() bool {
	changed := false
	for _, fn := range p.file.Funcs {
		ret := EmptyInterval()
		for _, r := range p.returns[fn.Name] {
			envAt, ok := p.stmtIn[r.Base().ID]
			if !ok {
				continue // unreachable return does not execute
			}
			if r.X == nil {
				ret = TopInterval()
				break
			}
			ret = JoinIntervals(ret, p.eval(r.X, envAt, fn.Name))
		}
		if ret.Empty {
			ret = TopInterval() // no reachable value-returning return
		}
		if p.retIv[fn.Name] != ret {
			p.retIv[fn.Name] = ret
			changed = true
		}

		sites := p.callSites[fn.Name]
		pv := p.paramIv[fn.Name]
		for i := range pv {
			v := EmptyInterval()
			if len(sites) == 0 {
				v = TopInterval() // never called from this file (e.g. main)
			}
			for _, cs := range sites {
				if i >= len(cs.call.Args) {
					v = TopInterval()
					break
				}
				envAt, ok := p.stmtIn[cs.stmt.Base().ID]
				if !ok {
					continue // unreachable call site
				}
				v = JoinIntervals(v, p.eval(cs.call.Args[i], envAt, cs.fn))
			}
			if v.Empty {
				v = TopInterval()
			}
			if pv[i] != v {
				pv[i] = v
				changed = true
			}
		}
	}
	return changed
}

// analyzeFunc runs the forward dataflow over one function: an ascending
// phase with widening at loop headers, two narrowing rounds, then a
// recording pass for the per-statement envs.
func (p *Intervals) analyzeFunc(fn *csrc.FuncDecl) {
	cfg := BuildCFG(fn)

	entry := ivEnv{}
	for i, prm := range fn.Params {
		if prm.Name == "" {
			continue
		}
		if pv := p.paramIv[fn.Name]; i < len(pv) {
			entry.set(prm.Name, pv[i])
		}
	}

	headers := map[int]bool{}
	for _, l := range cfg.Loops {
		headers[l.Header.ID] = true
	}

	in := map[int]ivEnv{}
	out := map[int]ivEnv{}
	visits := map[int]int{}
	rpo := cfg.reversePostorder()

	pass := func(widen, narrow bool) bool {
		changed := false
		for _, b := range rpo {
			blockIn := p.blockInput(cfg, b, entry, out, fn.Name)
			if headers[b.ID] {
				if prev, ok := in[b.ID]; ok {
					if widen {
						visits[b.ID]++
						if visits[b.ID] >= 2 {
							blockIn = widenIvEnv(prev, blockIn)
						}
					} else if narrow {
						blockIn = narrowIvEnv(prev, blockIn)
					}
				}
			}
			cur := blockIn.clone()
			for _, s := range b.Stmts {
				p.transfer(cur, s, fn.Name)
			}
			if !sameIvEnv(in[b.ID], blockIn) || !sameIvEnv(out[b.ID], cur) {
				changed = true
			}
			in[b.ID], out[b.ID] = blockIn, cur
		}
		return changed
	}
	for pass(true, false) {
	}
	pass(false, true)
	pass(false, true)

	for _, b := range cfg.Blocks {
		blockIn, ok := in[b.ID]
		if !ok {
			continue // unreachable block
		}
		cur := blockIn.clone()
		for _, s := range b.Stmts {
			id := s.Base().ID
			p.stmtIn[id] = cur.clone()
			p.stmtFn[id] = fn.Name
			p.transfer(cur, s, fn.Name)
		}
	}
}

// blockInput joins the refined outputs of the computed predecessors;
// infeasible edges (refinement emptied a value, or the branch condition is
// decidably wrong for the edge) contribute nothing.
func (p *Intervals) blockInput(cfg *CFG, b *BasicBlock, entry ivEnv, out map[int]ivEnv, fn string) ivEnv {
	var blockIn ivEnv
	if b == cfg.Entry {
		blockIn = entry.clone()
	}
	for _, pred := range b.Preds {
		po, ok := out[pred.ID]
		if !ok {
			continue // not yet computed (back edge on first pass)
		}
		ref, feasible := p.refineEdge(po, pred, b, fn)
		if !feasible {
			continue
		}
		if blockIn == nil {
			blockIn = ref
		} else {
			blockIn = joinIvEnv(blockIn, ref)
		}
	}
	if blockIn == nil {
		blockIn = ivEnv{}
	}
	return blockIn
}

// refineEdge applies the branch condition of pred's terminating statement
// to the env flowing along the pred→succ edge. The reported feasibility is
// false when the condition decides against the edge.
func (p *Intervals) refineEdge(src ivEnv, pred, succ *BasicBlock, fn string) (ivEnv, bool) {
	if len(pred.Stmts) == 0 {
		return src.clone(), true
	}
	var cond csrc.Expr
	var want bool
	switch st := pred.Stmts[len(pred.Stmts)-1].(type) {
	case *csrc.IfStmt:
		// builder edge order: Succs[0] = then entry, Succs[1] = else/join
		cond = st.Cond
		want = len(pred.Succs) > 0 && pred.Succs[0] == succ
	case *csrc.ForStmt:
		if condAlwaysTrue(st.Cond) {
			return src.clone(), true // single successor, nothing to refine
		}
		// builder edge order: Succs[0] = after (false), Succs[1] = body
		cond = st.Cond
		want = len(pred.Succs) > 1 && pred.Succs[1] == succ
	case *csrc.WhileStmt:
		if condAlwaysTrue(st.Cond) {
			return src.clone(), true
		}
		cond = st.Cond
		want = len(pred.Succs) > 1 && pred.Succs[1] == succ
	default:
		return src.clone(), true
	}
	if cond == nil {
		return src.clone(), true
	}
	civ := p.eval(cond, src, fn)
	if civ.Empty {
		return nil, false
	}
	if zero, ok := civ.IsConst(); ok && zero == 0 && want {
		return nil, false
	}
	if !civ.Contains(0) && !want {
		return nil, false
	}
	e := src.clone()
	p.refineCond(e, cond, want, fn)
	for _, v := range e {
		if v.Empty {
			return nil, false
		}
	}
	return e, true
}

// refineCond narrows e under the assumption cond evaluates to want.
func (p *Intervals) refineCond(e ivEnv, cond csrc.Expr, want bool, fn string) {
	switch ex := cond.(type) {
	case *csrc.Ident:
		if !want {
			p.constrain(e, ex.Name, ConstInterval(0), fn)
		}
	case *csrc.UnaryExpr:
		if ex.Op == "!" {
			p.refineCond(e, ex.X, !want, fn)
		}
	case *csrc.BinaryExpr:
		switch ex.Op {
		case "&&":
			if want {
				p.refineCond(e, ex.X, true, fn)
				p.refineCond(e, ex.Y, true, fn)
			}
		case "||":
			if !want {
				p.refineCond(e, ex.X, false, fn)
				p.refineCond(e, ex.Y, false, fn)
			}
		case "<", "<=", ">", ">=", "==", "!=":
			op := ex.Op
			if !want {
				op = negateCmp(op)
			}
			p.refineCmp(e, op, ex.X, ex.Y, fn)
		}
	}
}

func negateCmp(op string) string {
	switch op {
	case "<":
		return ">="
	case "<=":
		return ">"
	case ">":
		return "<="
	case ">=":
		return "<"
	case "==":
		return "!="
	default:
		return "=="
	}
}

// flipCmp mirrors a comparison across swapped operands.
func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op // == and != are symmetric
	}
}

func (p *Intervals) refineCmp(e ivEnv, op string, x, y csrc.Expr, fn string) {
	xiv := p.eval(x, e, fn)
	yiv := p.eval(y, e, fn)
	if id, ok := x.(*csrc.Ident); ok {
		p.applyCmp(e, id.Name, op, yiv, fn)
	}
	if id, ok := y.(*csrc.Ident); ok {
		p.applyCmp(e, id.Name, flipCmp(op), xiv, fn)
	}
}

// applyCmp clamps local name to satisfy `name op other`.
func (p *Intervals) applyCmp(e ivEnv, name, op string, other Interval, fn string) {
	if fn == "" || !p.locals[fn][name] || other.Empty {
		return
	}
	cur := p.lookup(name, e, fn)
	switch op {
	case "<":
		if !other.HiUnb {
			e.set(name, MeetIntervals(cur, fromBounds(negInfB, addB(finiteB(other.Hi), finiteB(-1)))))
		}
	case "<=":
		if !other.HiUnb {
			e.set(name, MeetIntervals(cur, fromBounds(negInfB, finiteB(other.Hi))))
		}
	case ">":
		if !other.LoUnb {
			e.set(name, MeetIntervals(cur, fromBounds(addB(finiteB(other.Lo), finiteB(1)), posInfB)))
		}
	case ">=":
		if !other.LoUnb {
			e.set(name, MeetIntervals(cur, fromBounds(finiteB(other.Lo), posInfB)))
		}
	case "==":
		e.set(name, MeetIntervals(cur, other))
	case "!=":
		if c, ok := other.IsConst(); ok {
			e.set(name, excludePoint(cur, c))
		}
	}
}

// excludePoint removes c from iv when c sits on a finite endpoint (the
// interval domain cannot represent interior holes).
func excludePoint(iv Interval, c int64) Interval {
	if v, ok := iv.IsConst(); ok && v == c {
		return EmptyInterval()
	}
	if iv.Empty {
		return iv
	}
	if !iv.LoUnb && iv.Lo == c {
		return fromBounds(addB(finiteB(c), finiteB(1)), iv.hib())
	}
	if !iv.HiUnb && iv.Hi == c {
		return fromBounds(iv.lob(), addB(finiteB(c), finiteB(-1)))
	}
	return iv
}

// constrain meets a local's interval with iv.
func (p *Intervals) constrain(e ivEnv, name string, iv Interval, fn string) {
	if fn == "" || !p.locals[fn][name] {
		return
	}
	e.set(name, MeetIntervals(p.lookup(name, e, fn), iv))
}

// transfer applies one statement's effect to the env in place. The call
// clobber conjecture matches the constprop pass: string writers strongly
// overwrite their destination (a buffer — just forgotten here), &x
// out-arguments and bare-identifier arguments of unmodeled calls drop to ⊤.
func (p *Intervals) transfer(e ivEnv, s csrc.Stmt, fn string) {
	for _, x := range stmtExprs(s) {
		csrc.WalkExpr(x, func(node csrc.Expr) bool {
			c, ok := node.(*csrc.CallExpr)
			if !ok {
				return true
			}
			shadowed := fn != "" && p.locals[fn][c.Fun]
			if _, isWriter := stringWriterCalls[c.Fun]; isWriter && !shadowed {
				if len(c.Args) > 0 {
					if base := rootIdent(c.Args[0]); base != "" {
						delete(e, base)
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
							delete(e, id.Name)
						}
					}
				case *csrc.Ident:
					if !argSafe {
						delete(e, arg.Name)
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
			delete(e, st.Name) // buffer contents are not a scalar
		case st.Init != nil:
			e.set(st.Name, p.eval(st.Init, e, fn))
		default:
			delete(e, st.Name) // uninitialized: any value
		}
	case *csrc.AssignStmt:
		if id, ok := st.LHS.(*csrc.Ident); ok {
			cur := p.lookup(id.Name, e, fn)
			switch st.Op {
			case "=":
				e.set(id.Name, p.eval(st.RHS, e, fn))
			case "++":
				e.set(id.Name, addInterval(cur, ConstInterval(1)))
			case "--":
				e.set(id.Name, subInterval(cur, ConstInterval(1)))
			default: // compound assignment
				op := strings.TrimSuffix(st.Op, "=")
				e.set(id.Name, p.evalBinaryIv(op, cur, p.eval(st.RHS, e, fn)))
			}
		} else if base := rootIdent(st.LHS); base != "" {
			delete(e, base) // element / pointer store
		}
	}
}

// lookup resolves a name: flow-sensitive for locals, the global constant
// table otherwise.
func (p *Intervals) lookup(name string, e ivEnv, fn string) Interval {
	if fn != "" && p.locals[fn][name] {
		return e.get(name)
	}
	if v, ok := p.globalInt[name]; ok {
		return ConstInterval(v)
	}
	return TopInterval()
}

// eval abstracts one expression in an env.
func (p *Intervals) eval(x csrc.Expr, e ivEnv, fn string) Interval {
	switch ex := x.(type) {
	case nil:
		return TopInterval()
	case *csrc.NumberLit:
		if ex.IsFloat {
			return TopInterval()
		}
		return ConstInterval(ex.Int)
	case *csrc.CharLit:
		return ConstInterval(int64(ex.Value))
	case *csrc.Ident:
		return p.lookup(ex.Name, e, fn)
	case *csrc.UnaryExpr:
		switch ex.Op {
		case "-":
			return negInterval(p.eval(ex.X, e, fn))
		case "+":
			return p.eval(ex.X, e, fn)
		case "!":
			return RangeInterval(0, 1)
		}
		return TopInterval()
	case *csrc.BinaryExpr:
		return p.evalBinaryIv(ex.Op, p.eval(ex.X, e, fn), p.eval(ex.Y, e, fn))
	case *csrc.CastExpr:
		return p.eval(ex.X, e, fn)
	case *csrc.SizeofExpr:
		if n, ok := sizeofType(ex.Type); ok {
			return ConstInterval(n)
		}
		return fromBounds(finiteB(1), posInfB)
	case *csrc.CallExpr:
		if fn != "" && p.locals[fn][ex.Fun] {
			return TopInterval()
		}
		if p.file.Func(ex.Fun) != nil {
			if iv, ok := p.retIv[ex.Fun]; ok {
				return iv
			}
		}
		return TopInterval()
	default:
		return TopInterval()
	}
}

// evalBinaryIv folds interval arithmetic; comparisons collapse to {0}, {1},
// or [0,1] as decidability allows.
func (p *Intervals) evalBinaryIv(op string, l, r Interval) Interval {
	if l.Empty || r.Empty {
		return EmptyInterval()
	}
	switch op {
	case "+":
		return addInterval(l, r)
	case "-":
		return subInterval(l, r)
	case "*":
		return mulInterval(l, r)
	case "/":
		return divInterval(l, r)
	case "%":
		return modInterval(l, r)
	case "<", "<=", ">", ">=", "==", "!=":
		if t, ok := compareIntervals(op, l, r); ok {
			if t {
				return ConstInterval(1)
			}
			return ConstInterval(0)
		}
		return RangeInterval(0, 1)
	case "&&", "||":
		return RangeInterval(0, 1)
	case "<<", ">>", "&", "|", "^":
		lv, lok := l.IsConst()
		rv, rok := r.IsConst()
		if lok && rok {
			if v := evalBinary(op, intConst(lv), intConst(rv)); v.kind == constInt {
				return ConstInterval(v.i)
			}
		}
		return TopInterval()
	default:
		return TopInterval()
	}
}

// compareIntervals decides `l op r` when the intervals allow it.
func compareIntervals(op string, l, r Interval) (result, decided bool) {
	lt := func(a, b Interval) (bool, bool) { // every a < every b?
		if !a.HiUnb && !b.LoUnb && a.Hi < b.Lo {
			return true, true
		}
		if !a.LoUnb && !b.HiUnb && a.Lo >= b.Hi {
			return false, true
		}
		return false, false
	}
	switch op {
	case "<":
		return lt(l, r)
	case ">":
		return lt(r, l)
	case "<=":
		v, ok := lt(r, l) // l <= r  ⇔  ¬(r < l)
		return !v, ok
	case ">=":
		v, ok := lt(l, r)
		return !v, ok
	case "==":
		lv, lok := l.IsConst()
		rv, rok := r.IsConst()
		if lok && rok {
			return lv == rv, true
		}
		if MeetIntervals(l, r).Empty {
			return false, true
		}
		return false, false
	case "!=":
		v, ok := compareIntervals("==", l, r)
		return !v, ok
	}
	return false, false
}

// foldInt folds an expression of literals (and sizeof) to a constant, with
// no environment — global initializers and array lengths.
func foldInt(e csrc.Expr) (int64, bool) {
	switch ex := e.(type) {
	case *csrc.NumberLit:
		if ex.IsFloat {
			return 0, false
		}
		return ex.Int, true
	case *csrc.CharLit:
		return int64(ex.Value), true
	case *csrc.UnaryExpr:
		if ex.Op == "-" {
			if v, ok := foldInt(ex.X); ok {
				return -v, true
			}
		}
		return 0, false
	case *csrc.BinaryExpr:
		l, lok := foldInt(ex.X)
		r, rok := foldInt(ex.Y)
		if lok && rok {
			if v := evalBinary(ex.Op, intConst(l), intConst(r)); v.kind == constInt {
				return v.i, true
			}
		}
		return 0, false
	case *csrc.CastExpr:
		return foldInt(ex.X)
	case *csrc.SizeofExpr:
		return sizeofType(ex.Type)
	default:
		return 0, false
	}
}

// sizeofType gives the byte size of the C scalar types the fixtures use.
func sizeofType(t string) (int64, bool) {
	switch strings.TrimSpace(t) {
	case "char", "signed char", "unsigned char":
		return 1, true
	case "short", "unsigned short":
		return 2, true
	case "int", "unsigned", "unsigned int", "float":
		return 4, true
	case "long", "unsigned long", "long long", "unsigned long long",
		"double", "size_t", "ssize_t", "int64_t", "uint64_t",
		"hsize_t", "hid_t", "herr_t", "MPI_Offset":
		return 8, true
	default:
		return 0, false
	}
}
