// Package discovery implements TunIO's Application I/O Discovery component
// (§III-B): it parses application source, finds I/O calls, marks their
// dependents (arguments, assignment targets, loop/conditional headers) and
// contextual parents in a fixpoint marking loop, and reconstructs a reduced
// I/O kernel that performs the same I/O. Optional source transformations —
// loop reduction and I/O path switching — further cut evaluation cost at
// a documented accuracy trade-off.
package discovery

import (
	"fmt"
	"strings"

	"tunio/internal/analysis"
	"tunio/internal/csrc"
)

// Options configure the discovery pipeline (the `options` input of the
// Table I discover_io interface).
type Options struct {
	// KeepFuncs forces entire functions to be kept (the paper's manually
	// indicated keep regions).
	KeepFuncs []string
	// LoopReduction keeps only this fraction of iterations of outermost
	// I/O loops (0 disables; the paper's Figure 8b uses 0.01).
	LoopReduction float64
	// PathSwitch rewrites file paths in I/O calls to /dev/shm so
	// evaluation I/O lands in memory instead of the parallel file system.
	PathSwitch bool
	// SimulateCompute replaces removed compute statements with synthetic
	// compute_flops calls so the kernel keeps the application's timing
	// shape (a §VI future-work transform; off by default).
	SimulateCompute bool
	// RemoveBlindWrites drops H5Dwrite calls overwritten by a later write
	// to the same dataset with no intervening read (§VI future-work
	// transform; trades footprint fidelity for speed, off by default).
	RemoveBlindWrites bool
	// Heuristic reverts marking to the paper's per-line fixpoint loop
	// (§III-B) instead of the default CFG/def-use backward slicer. The
	// heuristic keeps a superset of the precise slice — definitions that
	// cannot reach any I/O use survive — while replaying the same I/O
	// request stream.
	Heuristic bool
}

// Kernel is the discovery output.
type Kernel struct {
	// File is the reconstructed AST.
	File *csrc.File
	// Source is the formatted kernel source.
	Source string
	// FormattedInput is the formatted original (post-preprocessing, the
	// form the per-line marking operated on).
	FormattedInput string
	// MarkedLines lists the input lines kept, 1-based, ascending.
	MarkedLines []int
	// TotalLines is the formatted input's line count.
	TotalLines int
	// LoopScale is the factor by which I/O metrics of reduced loops must
	// be multiplied to estimate the original application (1 = no
	// reduction).
	LoopScale float64
	// ReducedLoops counts loops the reduction transform rewrote.
	ReducedLoops int
	// SimulatedComputeCalls counts synthetic compute calls inserted by the
	// compute-simulation transform.
	SimulatedComputeCalls int
	// RemovedBlindWrites counts H5Dwrite statements elided by the
	// blind-write removal transform.
	RemovedBlindWrites int
	// Warnings are transform-safety diagnostics (TR codes) for the
	// transforms enabled in Options, computed on the kernel before the
	// rewrites run. Empty when no transform is enabled or all enabled
	// transforms are provably safe.
	Warnings []analysis.Diagnostic
	// ResolvedPaths records computed path arguments that string-constant
	// propagation proved constant, letting path switching rewrite call
	// sites that would otherwise be blocked with TR003. Populated only
	// when PathSwitch is enabled.
	ResolvedPaths []ResolvedPath
}

// ResolvedPath is one computed path argument the path-switch transform
// rewrote via string-constant propagation.
type ResolvedPath struct {
	// Call is the opening I/O call (H5Fcreate, fopen, ...).
	Call string
	// Line is the call statement's source line in the kernel.
	Line int
	// Path is the proven constant value of the computed argument.
	Path string
	// Switched is the /dev/shm path substituted at the call site.
	Switched string
}

// ioPrefixes match I/O library calls.
var ioPrefixes = []string{"H5", "MPI_File", "fopen", "fclose", "fwrite", "fread", "fprintf", "fseek"}

// stringWriters are libc calls that write a string into their first
// argument; the marker records that buffer as a definition so path
// construction chains survive the fixpoint marking.
var stringWriters = map[string]bool{
	"sprintf": true, "snprintf": true, "strcpy": true, "strcat": true,
}

// alwaysKeep are runtime calls any kernel needs to execute.
var alwaysKeep = map[string]bool{
	"MPI_Init": true, "MPI_Finalize": true, "MPI_Comm_rank": true,
	"MPI_Comm_size": true, "MPI_Barrier": true,
}

// isIOCall reports whether a function name is an I/O call: HDF5, MPI-IO,
// stdio, or a runtime call any kernel needs.
func isIOCall(name string) bool {
	if alwaysKeep[name] {
		return true
	}
	for _, p := range ioPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// stmtInfo is the marking metadata of one statement.
type stmtInfo struct {
	stmt    csrc.Stmt
	parent  csrc.Stmt // enclosing If/For/While/Block owner statement (nil at function top level)
	fn      string    // enclosing function ("" for globals)
	uses    []string  // qualified variable names read
	defs    []string  // qualified variable names written
	callees []string  // user functions called
	isIO    bool
	marked  bool
}

// marker runs the fixpoint marking loop over a file.
type marker struct {
	file  *csrc.File
	opts  Options
	infos map[int]*stmtInfo // stmt ID -> info
	order []int             // stmt IDs in source order

	localNames map[string]map[string]bool // func -> declared names
	markedVars map[string]bool            // qualified names
	markedFns  map[string]bool            // functions containing marked stmts
}

// Discover runs the full pipeline on C source.
func Discover(source string, opts Options) (*Kernel, error) {
	if opts.LoopReduction < 0 || opts.LoopReduction >= 1 {
		if opts.LoopReduction != 0 {
			return nil, fmt.Errorf("discovery: LoopReduction %v outside (0,1)", opts.LoopReduction)
		}
	}
	file, err := csrc.Parse(source)
	if err != nil {
		return nil, err
	}
	formatted := csrc.Format(file) // assigns per-statement lines

	m := &marker{
		file:       file,
		opts:       opts,
		infos:      map[int]*stmtInfo{},
		localNames: map[string]map[string]bool{},
		markedVars: map[string]bool{},
		markedFns:  map[string]bool{},
	}
	m.collect()
	if !opts.Heuristic {
		// precise path: slice on def-use chains instead of name marking
		keep := analysis.Slice(file, analysis.SliceOptions{
			IsIOCall:  isIOCall,
			KeepFuncs: opts.KeepFuncs,
		})
		for _, id := range m.order {
			if keep[id] {
				m.mark(m.infos[id])
			}
		}
	} else {
		m.seed()
		m.fixpoint()
	}
	m.finishControlFlow()

	kernel := &Kernel{
		File:           m.reconstruct(),
		FormattedInput: formatted,
		TotalLines:     strings.Count(formatted, "\n"),
		LoopScale:      1,
	}
	for _, id := range m.order {
		info := m.infos[id]
		if info.marked && info.stmt.Base().Line > 0 {
			kernel.MarkedLines = append(kernel.MarkedLines, info.stmt.Base().Line)
		}
	}

	// Verification always runs: TR006/TR007 report soundness findings on
	// the extracted kernel even when no transform is requested, and the
	// transform-specific checks stay gated on their options inside
	// VerifyTransforms.
	kernel.Warnings = analysis.VerifyTransforms(kernel.File, analysis.TransformOptions{
		LoopReduction:     opts.LoopReduction > 0,
		PathSwitch:        opts.PathSwitch,
		RemoveBlindWrites: opts.RemoveBlindWrites,
		IsIOCall:          isIOCall,
	})
	// TR008: a transform that changed the kernel's symbolic I/O volume no
	// longer issues the original request stream. Only provable (exact)
	// before/after signatures are compared; loop reduction is expected to
	// scale volume and reports through LoopScale instead.
	checkVolume := (opts.RemoveBlindWrites || opts.PathSwitch) && opts.LoopReduction == 0
	var preSig *analysis.IOSignature
	if checkVolume {
		preSig = analysis.ComputeSignature(kernel.File, analysis.SignatureOptions{IsIOCall: isIOCall})
	}
	if opts.SimulateCompute {
		kernel.SimulatedComputeCalls = m.simulateCompute(kernel.File)
	}
	if opts.RemoveBlindWrites {
		kernel.RemovedBlindWrites = removeBlindWrites(kernel.File)
	}
	if opts.LoopReduction > 0 {
		kernel.ReducedLoops = reduceLoops(kernel.File, opts.LoopReduction, isIOCall)
		if kernel.ReducedLoops > 0 {
			kernel.LoopScale = 1 / opts.LoopReduction
		}
	}
	if opts.PathSwitch {
		kernel.ResolvedPaths = switchPaths(kernel.File)
	}
	if checkVolume {
		postSig := analysis.ComputeSignature(kernel.File, analysis.SignatureOptions{IsIOCall: isIOCall})
		kernel.Warnings = append(kernel.Warnings, analysis.VolumeDiagnostics(preSig, postSig)...)
	}
	kernel.Source = csrc.Format(kernel.File)
	return kernel, nil
}

// collect builds statement metadata with parent links and var usage.
func (m *marker) collect() {
	// declared names per function (params + local decls)
	for _, fn := range m.file.Funcs {
		names := map[string]bool{}
		for _, p := range fn.Params {
			names[p.Name] = true
		}
		collectDecls(fn.Body, names)
		m.localNames[fn.Name] = names
	}

	qualify := func(fn, name string) string {
		if fn != "" && m.localNames[fn][name] {
			return fn + ":" + name
		}
		return "::" + name
	}

	var visit func(s csrc.Stmt, parent csrc.Stmt, fn string)
	visitBlock := func(b *csrc.Block, parent csrc.Stmt, fn string) {
		if b == nil {
			return
		}
		for _, s := range b.Stmts {
			visit(s, parent, fn)
		}
	}
	visit = func(s csrc.Stmt, parent csrc.Stmt, fn string) {
		if s == nil {
			return
		}
		info := &stmtInfo{stmt: s, parent: parent, fn: fn}
		m.infos[s.Base().ID] = info
		m.order = append(m.order, s.Base().ID)

		addUses := func(e csrc.Expr) {
			for _, v := range csrc.ExprVars(e) {
				info.uses = append(info.uses, qualify(fn, v))
			}
			csrc.WalkExpr(e, func(x csrc.Expr) bool {
				switch c := x.(type) {
				case *csrc.CallExpr:
					// a call through a locally-declared name (parameter or
					// local used as a function pointer) is not a call to the
					// user function or I/O routine of the same name
					shadowed := fn != "" && m.localNames[fn][c.Fun]
					if m.file.Func(c.Fun) != nil && !shadowed {
						info.callees = append(info.callees, c.Fun)
					}
					if isIOCall(c.Fun) && !shadowed {
						info.isIO = true
					}
					// &x arguments are outputs of the call
					for _, a := range c.Args {
						if u, ok := a.(*csrc.UnaryExpr); ok && u.Op == "&" {
							if id, ok := u.X.(*csrc.Ident); ok {
								info.defs = append(info.defs, qualify(fn, id.Name))
							}
						}
					}
					// sprintf-family calls write their destination buffer
					if stringWriters[c.Fun] && !shadowed && len(c.Args) > 0 {
						if base := rootIdent(c.Args[0]); base != "" {
							info.defs = append(info.defs, qualify(fn, base))
						}
					}
				}
				return true
			})
		}

		switch st := s.(type) {
		case *csrc.DeclStmt:
			info.defs = append(info.defs, qualify(fn, st.Name))
			addUses(st.Init)
			if st.ArrayLen != nil {
				addUses(st.ArrayLen)
			}
			for _, e := range st.InitList {
				addUses(e)
			}
		case *csrc.AssignStmt:
			if base := rootIdent(st.LHS); base != "" {
				info.defs = append(info.defs, qualify(fn, base))
			}
			addUses(st.LHS) // index expressions read their subscripts
			addUses(st.RHS)
		case *csrc.ExprStmt:
			addUses(st.X)
		case *csrc.IfStmt:
			addUses(st.Cond)
			visitBlock(st.Then, st, fn)
			visitBlock(st.Else, st, fn)
		case *csrc.ForStmt:
			if st.Init != nil {
				visit(st.Init, st, fn)
			}
			addUses(st.Cond)
			if st.Post != nil {
				visit(st.Post, st, fn)
			}
			visitBlock(st.Body, st, fn)
		case *csrc.WhileStmt:
			addUses(st.Cond)
			visitBlock(st.Body, st, fn)
		case *csrc.ReturnStmt:
			addUses(st.X)
		case *csrc.Block:
			visitBlock(st, st, fn)
		}
	}

	for _, g := range m.file.Globals {
		visit(g, nil, "")
	}
	for _, fn := range m.file.Funcs {
		keepAll := false
		for _, k := range m.opts.KeepFuncs {
			if k == fn.Name {
				keepAll = true
			}
		}
		visitBlock(fn.Body, nil, fn.Name)
		if keepAll {
			for _, id := range m.order {
				if m.infos[id].fn == fn.Name {
					m.infos[id].isIO = true
				}
			}
		}
	}
}

// collectDecls gathers declared names in a block tree.
func collectDecls(b *csrc.Block, names map[string]bool) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		switch st := s.(type) {
		case *csrc.DeclStmt:
			names[st.Name] = true
		case *csrc.Block:
			collectDecls(st, names)
		case *csrc.IfStmt:
			collectDecls(st.Then, names)
			collectDecls(st.Else, names)
		case *csrc.ForStmt:
			if d, ok := st.Init.(*csrc.DeclStmt); ok {
				names[d.Name] = true
			}
			collectDecls(st.Body, names)
		case *csrc.WhileStmt:
			collectDecls(st.Body, names)
		}
	}
}

// rootIdent returns the base variable of an lvalue (a, a[i], *a).
func rootIdent(e csrc.Expr) string {
	switch x := e.(type) {
	case *csrc.Ident:
		return x.Name
	case *csrc.IndexExpr:
		return rootIdent(x.X)
	case *csrc.UnaryExpr:
		return rootIdent(x.X)
	default:
		return ""
	}
}

// seed marks the I/O statements themselves.
func (m *marker) seed() {
	for _, id := range m.order {
		if m.infos[id].isIO {
			m.mark(m.infos[id])
		}
	}
}

// mark marks a statement and propagates its dependents.
func (m *marker) mark(info *stmtInfo) {
	if info.marked {
		return
	}
	info.marked = true
	if info.fn != "" {
		m.markedFns[info.fn] = true
	}
	for _, v := range info.uses {
		m.markedVars[v] = true
	}
	for _, v := range info.defs {
		m.markedVars[v] = true
	}
}

// fixpoint runs the marking loop until no statement changes: definitions
// of marked variables are marked (backward traversal), contextual parents
// are marked, and calls to functions containing I/O are marked.
func (m *marker) fixpoint() {
	for changed := true; changed; {
		changed = false
		for _, id := range m.order {
			info := m.infos[id]
			if !info.marked {
				// definitions feeding marked variables
				for _, d := range info.defs {
					if m.markedVars[d] {
						m.mark(info)
						changed = true
						break
					}
				}
				if info.marked {
					continue
				}
				// calls into functions that contain marked statements
				for _, c := range info.callees {
					if m.markedFns[c] {
						m.mark(info)
						changed = true
						break
					}
				}
				continue
			}
			// contextual parent of a marked statement
			if info.parent != nil {
				pinfo := m.infos[info.parent.Base().ID]
				if pinfo != nil && !pinfo.marked {
					m.mark(pinfo)
					changed = true
				}
			}
		}
	}
}

// finishControlFlow keeps return/break/continue statements whose ancestor
// chain is fully marked (dropping them would change kernel control flow).
func (m *marker) finishControlFlow() {
	for _, id := range m.order {
		info := m.infos[id]
		switch info.stmt.(type) {
		case *csrc.ReturnStmt, *csrc.BreakStmt, *csrc.ContinueStmt:
		default:
			continue
		}
		if info.marked {
			continue
		}
		keep := true
		for p := info.parent; p != nil; {
			pi := m.infos[p.Base().ID]
			if pi == nil {
				break
			}
			if !pi.marked {
				keep = false
				break
			}
			p = pi.parent
		}
		if keep {
			if info.fn == "" || m.markedFns[info.fn] {
				m.mark(info)
			}
		}
	}
}

// reconstruct builds the kernel AST from marked statements.
func (m *marker) reconstruct() *csrc.File {
	out := &csrc.File{Defines: m.file.Defines}
	for _, g := range m.file.Globals {
		if info := m.infos[g.ID]; info != nil && info.marked {
			out.Globals = append(out.Globals, g)
		}
	}
	for _, fn := range m.file.Funcs {
		if fn.Name != "main" && !m.markedFns[fn.Name] {
			continue
		}
		nf := &csrc.FuncDecl{RetType: fn.RetType, Name: fn.Name, Params: fn.Params}
		nf.Body = m.filterBlock(fn.Body)
		out.Funcs = append(out.Funcs, nf)
	}
	return out
}

func (m *marker) isMarked(s csrc.Stmt) bool {
	if s == nil {
		return false
	}
	info := m.infos[s.Base().ID]
	return info != nil && info.marked
}

func (m *marker) filterBlock(b *csrc.Block) *csrc.Block {
	if b == nil {
		return nil
	}
	nb := &csrc.Block{StmtBase: b.StmtBase}
	for _, s := range b.Stmts {
		switch st := s.(type) {
		case *csrc.Block:
			inner := m.filterBlock(st)
			if len(inner.Stmts) > 0 {
				nb.Stmts = append(nb.Stmts, inner)
			}
		case *csrc.IfStmt:
			if !m.isMarked(st) {
				continue
			}
			ni := &csrc.IfStmt{StmtBase: st.StmtBase, Cond: st.Cond}
			ni.Then = m.filterBlock(st.Then)
			if st.Else != nil {
				e := m.filterBlock(st.Else)
				if len(e.Stmts) > 0 {
					ni.Else = e
				}
			}
			nb.Stmts = append(nb.Stmts, ni)
		case *csrc.ForStmt:
			if !m.isMarked(st) {
				continue
			}
			nf := &csrc.ForStmt{StmtBase: st.StmtBase, Init: st.Init, Cond: st.Cond, Post: st.Post}
			nf.Body = m.filterBlock(st.Body)
			nb.Stmts = append(nb.Stmts, nf)
		case *csrc.WhileStmt:
			if !m.isMarked(st) {
				continue
			}
			nw := &csrc.WhileStmt{StmtBase: st.StmtBase, Cond: st.Cond}
			nw.Body = m.filterBlock(st.Body)
			nb.Stmts = append(nb.Stmts, nw)
		default:
			if m.isMarked(st) {
				nb.Stmts = append(nb.Stmts, st)
			}
		}
	}
	return nb
}
