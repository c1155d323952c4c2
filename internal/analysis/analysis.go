// Package analysis is the static-analysis layer over the csrc AST: a
// per-function control-flow graph with dominators, classic dataflow
// analyses (reaching definitions, function purity summaries), a
// precise backward program slicer seeded at I/O calls, a transform-safety
// verifier for the discovery pipeline's source rewrites, and a lint engine
// that surfaces machine-checkable diagnostics about a program's I/O
// behavior.
//
// The discovery package's per-line fixpoint marker (the paper's §III-B
// marking loop) over-keeps statements because it reasons about variable
// *names*; the analyses here reason about def-use chains on the CFG, which
// lets the slicer prove a statement cannot influence any I/O call and drop
// it, and lets the verifier prove a source transform preserves the I/O
// request stream before it is applied.
package analysis

import (
	"fmt"
	"strings"

	"tunio/internal/csrc"
)

// Severity ranks diagnostics.
type Severity int

// Severity levels, ordered: an Error-level finding makes iolint exit
// non-zero.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	default:
		return "info"
	}
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", s.String())), nil
}

// UnmarshalJSON decodes a severity name.
func (s *Severity) UnmarshalJSON(data []byte) error {
	switch strings.Trim(string(data), `"`) {
	case "error":
		*s = SevError
	case "warning":
		*s = SevWarning
	case "info":
		*s = SevInfo
	default:
		return fmt.Errorf("analysis: unknown severity %s", data)
	}
	return nil
}

// Diagnostic codes emitted by Lint and VerifyTransforms.
const (
	// CodeUnreachableIO flags an I/O call that can never execute.
	CodeUnreachableIO = "IO001"
	// CodeWriteAfterWrite flags a dataset write overwritten before any read.
	CodeWriteAfterWrite = "IO002"
	// CodeUnboundedIOLoop flags I/O inside a loop with no exit.
	CodeUnboundedIOLoop = "IO003"
	// CodeUnusedVariable flags a declared variable that is never read.
	CodeUnusedVariable = "IO004"
	// CodeShadowedIOName flags a local that shadows an I/O library name.
	CodeShadowedIOName = "IO005"
	// CodeUnclosedHandle flags a file handle that is opened but never closed.
	CodeUnclosedHandle = "IO006"

	// CodeLoopBoundMutated reports (at error severity) that loop reduction
	// would rewrite a bound whose variables the loop body mutates — applying
	// the transform there is unsound, so CLIs exit non-zero on it.
	CodeLoopBoundMutated = "TR001"
	// CodeLoopCarriedIO warns that a reduced loop feeds values into I/O
	// arguments after the loop (reduction changes those values).
	CodeLoopCarriedIO = "TR002"
	// CodeComputedPath warns that path switching cannot rewrite a non-literal
	// path argument that string-constant propagation failed to resolve to a
	// proven constant (resolved arguments are switched and not flagged).
	CodeComputedPath = "TR003"
	// CodeAliasedHandle warns that blind-write removal saw a dataset handle
	// escape to a user function between candidate writes.
	CodeAliasedHandle = "TR004"
	// CodeIrreducibleLoop warns that an I/O loop has a shape loop reduction
	// cannot rewrite, so LoopScale under-counts the skipped loop.
	CodeIrreducibleLoop = "TR005"
	// CodeOutOfBoundsIndex reports (at error severity) an array index the
	// interval analysis proves entirely outside the array's bounds on a
	// reachable path.
	CodeOutOfBoundsIndex = "TR006"
	// CodeNonTerminatingIOLoop reports (at error severity) an I/O loop whose
	// induction variable provably moves away from its bound (or whose
	// condition variables are never modified), so the loop never exits.
	CodeNonTerminatingIOLoop = "TR007"
	// CodeVolumeChanged warns that a discovery transform changed the
	// kernel's symbolic I/O volume (total bytes written or read), so the
	// rewritten kernel no longer issues the original request stream.
	CodeVolumeChanged = "TR008"

	// CodeSmallWritesInLoop warns about transfers issued from a loop whose
	// trip count the bounds analysis proves high while each transfer is
	// provably small — a request-merging opportunity.
	CodeSmallWritesInLoop = "IO007"
	// CodeRepeatedExtentRMW warns that the same dataset extent is both read
	// and written on every iteration of a loop (a read-modify-write that
	// could be hoisted).
	CodeRepeatedExtentRMW = "IO008"
)

// Diagnostic is one structured finding with a source position.
type Diagnostic struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	// Line is the 1-based source line of the offending statement (the
	// parser's StmtBase.Pos).
	Line int `json:"line"`
	// Func names the enclosing function ("" at global scope).
	Func    string `json:"func,omitempty"`
	Message string `json:"message"`
}

// String renders the diagnostic in compiler-style one-line form.
func (d Diagnostic) String() string {
	loc := fmt.Sprintf("line %d", d.Line)
	if d.Func != "" {
		loc += ", " + d.Func
	}
	return fmt.Sprintf("%s: %s [%s]: %s", loc, d.Severity, d.Code, d.Message)
}

// MaxSeverity returns the highest severity among diagnostics (SevInfo for
// an empty slice).
func MaxSeverity(diags []Diagnostic) Severity {
	max := SevInfo
	for _, d := range diags {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max
}

// LocalNames returns, per function, the set of names declared inside it
// (parameters and local declarations at any depth). A call through a name
// in this set is a call through a local (e.g. a function pointer), not a
// call to the library function of the same name.
func LocalNames(f *csrc.File) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, fn := range f.Funcs {
		names := map[string]bool{}
		for _, p := range fn.Params {
			if p.Name != "" {
				names[p.Name] = true
			}
		}
		var walk func(b *csrc.Block)
		walk = func(b *csrc.Block) {
			if b == nil {
				return
			}
			for _, s := range b.Stmts {
				switch st := s.(type) {
				case *csrc.DeclStmt:
					names[st.Name] = true
				case *csrc.Block:
					walk(st)
				case *csrc.IfStmt:
					walk(st.Then)
					walk(st.Else)
				case *csrc.ForStmt:
					if d, ok := st.Init.(*csrc.DeclStmt); ok {
						names[d.Name] = true
					}
					walk(st.Body)
				case *csrc.WhileStmt:
					walk(st.Body)
				}
			}
		}
		walk(fn.Body)
		out[fn.Name] = names
	}
	return out
}
