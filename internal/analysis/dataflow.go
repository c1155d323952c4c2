package analysis

import "tunio/internal/csrc"

// Def is one definition site inside a function: the statement and the
// variable it defines.
type Def struct {
	Stmt   csrc.Stmt
	Var    string
	Strong bool
}

// ReachingDefs is the classic forward may-analysis: which definitions of
// each variable can reach each program point. Weak definitions (array
// stores, &x out-arguments) generate but do not kill.
type ReachingDefs struct {
	CFG  *CFG
	Defs []Def
	// In and Out map block ID -> set of reaching definition indices.
	In, Out map[int]map[int]bool

	stmtIn  map[int]map[int]bool // statement ID -> defs reaching just before it
	defsOf  map[string][]int     // var -> def indices
	defUses map[int]DefUse       // statement ID -> cached def/use
}

// NewReachingDefs computes reaching definitions over a CFG.
func NewReachingDefs(cfg *CFG) *ReachingDefs {
	rd := &ReachingDefs{
		CFG:     cfg,
		In:      map[int]map[int]bool{},
		Out:     map[int]map[int]bool{},
		stmtIn:  map[int]map[int]bool{},
		defsOf:  map[string][]int{},
		defUses: map[int]DefUse{},
	}
	// enumerate definitions in block order
	for _, b := range cfg.Blocks {
		for _, s := range b.Stmts {
			du := StmtDefUse(s)
			rd.defUses[s.Base().ID] = du
			for _, d := range du.Defs {
				rd.defsOf[d.Var] = append(rd.defsOf[d.Var], len(rd.Defs))
				rd.Defs = append(rd.Defs, Def{Stmt: s, Var: d.Var, Strong: d.Strong})
			}
		}
	}

	transfer := func(in map[int]bool, s csrc.Stmt) map[int]bool {
		out := in
		for _, d := range rd.defUses[s.Base().ID].Defs {
			if out == nil {
				out = map[int]bool{}
			} else {
				// copy-on-write
				cp := make(map[int]bool, len(out))
				for k := range out {
					cp[k] = true
				}
				out = cp
			}
			if d.Strong {
				for _, di := range rd.defsOf[d.Var] {
					delete(out, di)
				}
			}
			for _, di := range rd.defsOf[d.Var] {
				if rd.Defs[di].Stmt.Base().ID == s.Base().ID {
					out[di] = true
				}
			}
		}
		return out
	}

	// iterate to fixpoint in reverse postorder
	rpo := cfg.reversePostorder()
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			in := map[int]bool{}
			for _, p := range b.Preds {
				for di := range rd.Out[p.ID] {
					in[di] = true
				}
			}
			out := in
			for _, s := range b.Stmts {
				out = transfer(out, s)
			}
			if !sameSet(out, rd.Out[b.ID]) {
				rd.In[b.ID] = in
				rd.Out[b.ID] = out
				changed = true
			} else {
				rd.In[b.ID] = in
			}
		}
	}

	// record per-statement in-sets
	for _, b := range cfg.Blocks {
		cur := rd.In[b.ID]
		for _, s := range b.Stmts {
			rd.stmtIn[s.Base().ID] = cur
			cur = transfer(cur, s)
		}
	}
	return rd
}

func sameSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// Reaching returns the statements defining v that may reach s (just
// before s executes). Loop headers see definitions flowing around the
// back edge.
func (rd *ReachingDefs) Reaching(s csrc.Stmt, v string) []csrc.Stmt {
	var out []csrc.Stmt
	seen := map[int]bool{}
	for di := range rd.stmtIn[s.Base().ID] {
		d := rd.Defs[di]
		if d.Var != v {
			continue
		}
		id := d.Stmt.Base().ID
		if !seen[id] {
			seen[id] = true
			out = append(out, d.Stmt)
		}
	}
	return out
}

// DefUseOf returns the cached def/use sets of a statement inside this
// function (zero value for statements of other functions).
func (rd *ReachingDefs) DefUseOf(s csrc.Stmt) DefUse { return rd.defUses[s.Base().ID] }
