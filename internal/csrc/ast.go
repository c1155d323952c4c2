package csrc

// LoopReduceBuiltin is the helper discovery's loop-reduction transform
// inserts around loop bounds; the interpreter implements it as
// max(1, floor(n * fraction)). It is declared here, in the language both
// of them speak, so the interpreter need not import the transform.
const LoopReduceBuiltin = "__loop_reduce"

// Expr is a C expression node.
type Expr interface{ exprNode() }

// Ident is a variable or function name.
type Ident struct{ Name string }

// NumberLit is an integer or floating literal.
type NumberLit struct {
	Text    string
	IsFloat bool
	Int     int64
	Float   float64
}

// StringLit is a string literal (decoded).
type StringLit struct{ Value string }

// CharLit is a character literal.
type CharLit struct{ Value byte }

// BinaryExpr is X op Y.
type BinaryExpr struct {
	Op   string
	X, Y Expr
}

// UnaryExpr is op X (-, !, ~, &, *).
type UnaryExpr struct {
	Op string
	X  Expr
}

// CallExpr is Fun(Args...).
type CallExpr struct {
	Fun  string
	Args []Expr
}

// IndexExpr is X[Index].
type IndexExpr struct {
	X     Expr
	Index Expr
}

// CastExpr is (Type) X.
type CastExpr struct {
	Type string
	X    Expr
}

// SizeofExpr is sizeof(Type) (resolved to a byte count at interpretation).
type SizeofExpr struct{ Type string }

func (*Ident) exprNode()      {}
func (*NumberLit) exprNode()  {}
func (*StringLit) exprNode()  {}
func (*CharLit) exprNode()    {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
func (*IndexExpr) exprNode()  {}
func (*CastExpr) exprNode()   {}
func (*SizeofExpr) exprNode() {}

// Stmt is a C statement node. Every statement carries a unique ID
// (assigned by the parser) and, after formatting, the printed line it
// occupies — the unit of the paper's marking loop.
type Stmt interface {
	stmtNode()
	Base() *StmtBase
}

// StmtBase carries identity and position shared by all statements.
type StmtBase struct {
	ID   int
	Pos  int // 1-based source line of the statement's first token
	Line int // printed line after Format; 0 before formatting
}

func (b *StmtBase) Base() *StmtBase { return b }

// DeclStmt declares (and optionally initializes) a variable.
type DeclStmt struct {
	StmtBase
	Type     string
	Name     string
	ArrayLen Expr   // non-nil for array declarations
	Init     Expr   // scalar initializer
	InitList []Expr // brace initializer for arrays
}

// ExprStmt evaluates an expression for effect (typically a call).
type ExprStmt struct {
	StmtBase
	X Expr
}

// AssignStmt is LHS op RHS with op = or a binary operator followed by =
// (+=, -=, *=, /=, %=, <<=, >>=, &=, |=, ^=), or the postfix forms (op
// "++"/"--", RHS nil).
type AssignStmt struct {
	StmtBase
	Op  string
	LHS Expr
	RHS Expr
}

// Block is a brace-delimited statement list.
type Block struct {
	StmtBase
	Stmts []Stmt
}

// IfStmt is a conditional with optional else.
type IfStmt struct {
	StmtBase
	Cond Expr
	Then *Block
	Else *Block // nil when absent
}

// ForStmt is a C for loop.
type ForStmt struct {
	StmtBase
	Init Stmt // DeclStmt or AssignStmt, may be nil
	Cond Expr // may be nil
	Post Stmt // AssignStmt, may be nil
	Body *Block
}

// WhileStmt is a while loop.
type WhileStmt struct {
	StmtBase
	Cond Expr
	Body *Block
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	StmtBase
	X Expr // may be nil
}

// BreakStmt breaks the enclosing loop.
type BreakStmt struct{ StmtBase }

// ContinueStmt continues the enclosing loop.
type ContinueStmt struct{ StmtBase }

func (*DeclStmt) stmtNode()     {}
func (*ExprStmt) stmtNode()     {}
func (*AssignStmt) stmtNode()   {}
func (*Block) stmtNode()        {}
func (*IfStmt) stmtNode()       {}
func (*ForStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}

// Param is a function parameter.
type Param struct {
	Type string
	Name string
}

// FuncDecl is a function definition.
type FuncDecl struct {
	RetType string
	Name    string
	Params  []Param
	Body    *Block
}

// File is a parsed translation unit.
type File struct {
	Globals []*DeclStmt
	Funcs   []*FuncDecl
	Defines map[string]string
}

// Func returns the named function, or nil.
func (f *File) Func(name string) *FuncDecl {
	for _, fn := range f.Funcs {
		if fn.Name == name {
			return fn
		}
	}
	return nil
}

// WalkStmts visits every statement in the file in source order (including
// nested blocks and loop headers' init/post statements).
func (f *File) WalkStmts(fn func(Stmt) bool) {
	var walk func(s Stmt) bool
	walkBlock := func(b *Block) bool {
		if b == nil {
			return true
		}
		for _, s := range b.Stmts {
			if !walk(s) {
				return false
			}
		}
		return true
	}
	walk = func(s Stmt) bool {
		if s == nil {
			return true
		}
		if !fn(s) {
			return false
		}
		switch st := s.(type) {
		case *Block:
			return walkBlock(st)
		case *IfStmt:
			if !walkBlock(st.Then) {
				return false
			}
			return walkBlock(st.Else)
		case *ForStmt:
			if st.Init != nil && !walk(st.Init) {
				return false
			}
			if st.Post != nil && !walk(st.Post) {
				return false
			}
			return walkBlock(st.Body)
		case *WhileStmt:
			return walkBlock(st.Body)
		}
		return true
	}
	for _, g := range f.Globals {
		if !walk(g) {
			return
		}
	}
	for _, fd := range f.Funcs {
		if !walkBlock(fd.Body) {
			return
		}
	}
}

// WalkExpr visits an expression tree preorder.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExpr(x.X, fn)
		WalkExpr(x.Y, fn)
	case *UnaryExpr:
		WalkExpr(x.X, fn)
	case *CallExpr:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *IndexExpr:
		WalkExpr(x.X, fn)
		WalkExpr(x.Index, fn)
	case *CastExpr:
		WalkExpr(x.X, fn)
	}
}

// ExprVars returns the variable names referenced in an expression.
func ExprVars(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	WalkExpr(e, func(x Expr) bool {
		if id, ok := x.(*Ident); ok && !seen[id.Name] {
			seen[id.Name] = true
			out = append(out, id.Name)
		}
		return true
	})
	return out
}
