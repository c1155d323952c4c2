package csrc

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser builds the AST from a token stream.
type Parser struct {
	toks   []Token
	pos    int
	nextID int
	file   *File
}

// Parse parses a translation unit.
func Parse(src string) (*File, error) {
	toks, defines, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, nextID: 1, file: &File{Defines: defines}}
	if err := p.parseFile(); err != nil {
		return nil, err
	}
	return p.file, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) at(text string) bool {
	t := p.cur()
	return (t.Kind == TokPunct || t.Kind == TokKeyword) && t.Text == text
}

func (p *Parser) accept(text string) bool {
	if p.at(text) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(text string) error {
	if !p.accept(text) {
		return fmt.Errorf("csrc: line %d: expected %q, found %q", p.cur().Line, text, p.cur().Text)
	}
	return nil
}

func (p *Parser) newBaseAt(line int) StmtBase {
	id := p.nextID
	p.nextID++
	return StmtBase{ID: id, Pos: line}
}

// atType reports whether the current position starts a type.
func (p *Parser) atType() bool {
	t := p.cur()
	if t.Kind == TokKeyword && (t.Text == "const" || t.Text == "static" || t.Text == "unsigned" ||
		t.Text == "void" || t.Text == "int" || t.Text == "long" || t.Text == "float" ||
		t.Text == "double" || t.Text == "char" || t.Text == "struct") {
		return true
	}
	return t.Kind == TokIdent && IsTypeName(t.Text)
}

// parseType consumes a type (qualifiers, base, pointers) returning its text.
func (p *Parser) parseType() (string, error) {
	var parts []string
	for p.at("const") || p.at("static") || p.at("unsigned") {
		parts = append(parts, p.next().Text)
	}
	t := p.cur()
	if t.Kind != TokKeyword && t.Kind != TokIdent {
		return "", fmt.Errorf("csrc: line %d: expected type, found %q", t.Line, t.Text)
	}
	if t.Text == "struct" {
		p.next()
		name := p.next()
		parts = append(parts, "struct "+name.Text)
	} else {
		parts = append(parts, p.next().Text)
	}
	// "long long", "unsigned long" etc.
	for p.at("long") || p.at("int") || p.at("double") {
		parts = append(parts, p.next().Text)
	}
	typ := strings.Join(parts, " ")
	for p.at("*") {
		p.next()
		typ += "*"
	}
	return typ, nil
}

func (p *Parser) parseFile() error {
	for p.cur().Kind != TokEOF {
		if !p.atType() {
			return fmt.Errorf("csrc: line %d: expected declaration, found %q", p.cur().Line, p.cur().Text)
		}
		save := p.pos
		typ, err := p.parseType()
		if err != nil {
			return err
		}
		nameTok := p.cur()
		if nameTok.Kind != TokIdent {
			return fmt.Errorf("csrc: line %d: expected name after type, found %q", nameTok.Line, nameTok.Text)
		}
		p.next()
		if p.at("(") {
			fn, err := p.parseFuncRest(typ, nameTok.Text)
			if err != nil {
				return err
			}
			p.file.Funcs = append(p.file.Funcs, fn)
			continue
		}
		// global variable: rewind and parse as a declaration statement
		p.pos = save
		stmt, err := p.parseDecl()
		if err != nil {
			return err
		}
		p.file.Globals = append(p.file.Globals, stmt)
	}
	return nil
}

func (p *Parser) parseFuncRest(retType, name string) (*FuncDecl, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	fn := &FuncDecl{RetType: retType, Name: name}
	for !p.at(")") {
		if p.at("void") && p.toks[p.pos+1].Text == ")" {
			p.next()
			break
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		pname := ""
		if p.cur().Kind == TokIdent {
			pname = p.next().Text
		}
		// array parameter: type name[]
		for p.accept("[") {
			if !p.at("]") {
				p.next()
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			typ += "*"
		}
		fn.Params = append(fn.Params, Param{Type: typ, Name: pname})
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	ln := p.cur().Line
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	b := &Block{StmtBase: p.newBaseAt(ln)}
	for !p.at("}") {
		if p.cur().Kind == TokEOF {
			return nil, fmt.Errorf("csrc: unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	return b, nil
}

// blockOf wraps a single statement in a block if needed (the formatter
// always prints braces, matching the clang-format preprocessing).
func (p *Parser) blockOf(s Stmt) *Block {
	if b, ok := s.(*Block); ok {
		return b
	}
	return &Block{StmtBase: p.newBaseAt(s.Base().Pos), Stmts: []Stmt{s}}
}

func (p *Parser) parseStmt() (Stmt, error) {
	ln := p.cur().Line
	switch {
	case p.at("{"):
		return p.parseBlock()
	case p.at("if"):
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		st := &IfStmt{StmtBase: p.newBaseAt(ln), Cond: cond}
		thenStmt, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.Then = p.blockOf(thenStmt)
		if p.accept("else") {
			elseStmt, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			st.Else = p.blockOf(elseStmt)
		}
		return st, nil
	case p.at("for"):
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		st := &ForStmt{StmtBase: p.newBaseAt(ln)}
		if !p.at(";") {
			init, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			st.Init = init
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		if !p.at(";") {
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Cond = cond
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		if !p.at(")") {
			post, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			st.Post = post
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.Body = p.blockOf(body)
		return st, nil
	case p.at("while"):
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{StmtBase: p.newBaseAt(ln), Cond: cond, Body: p.blockOf(body)}, nil
	case p.at("return"):
		p.next()
		st := &ReturnStmt{StmtBase: p.newBaseAt(ln)}
		if !p.at(";") {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.X = x
		}
		return st, p.expect(";")
	case p.at("break"):
		p.next()
		return &BreakStmt{StmtBase: p.newBaseAt(ln)}, p.expect(";")
	case p.at("continue"):
		p.next()
		return &ContinueStmt{StmtBase: p.newBaseAt(ln)}, p.expect(";")
	case p.atType():
		st, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		return st, nil
	default:
		st, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		return st, p.expect(";")
	}
}

// parseDecl parses `type name ...;` (scalar, pointer, or array).
func (p *Parser) parseDecl() (*DeclStmt, error) {
	ln := p.cur().Line
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	nameTok := p.cur()
	if nameTok.Kind != TokIdent {
		return nil, fmt.Errorf("csrc: line %d: expected variable name, found %q", nameTok.Line, nameTok.Text)
	}
	p.next()
	st := &DeclStmt{StmtBase: p.newBaseAt(ln), Type: typ, Name: nameTok.Text}
	if p.accept("[") {
		if !p.at("]") {
			n, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.ArrayLen = n
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	if p.accept("=") {
		if p.accept("{") {
			for !p.at("}") {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				st.InitList = append(st.InitList, e)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect("}"); err != nil {
				return nil, err
			}
		} else {
			init, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Init = init
		}
	}
	return st, p.expect(";")
}

// parseSimpleStmt parses an assignment, inc/dec, or expression statement
// (no trailing semicolon).
func (p *Parser) parseSimpleStmt() (Stmt, error) {
	ln := p.cur().Line
	if p.atType() {
		// declaration in a for-init; parseDecl consumes the semicolon, so
		// back up over it
		save := p.pos
		st, err := p.parseDecl()
		if err != nil {
			p.pos = save
			return nil, err
		}
		p.pos-- // give the semicolon back to the caller
		return st, nil
	}
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^=":
			p.next()
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &AssignStmt{StmtBase: p.newBaseAt(ln), Op: t.Text, LHS: lhs, RHS: rhs}, nil
		case "++", "--":
			p.next()
			return &AssignStmt{StmtBase: p.newBaseAt(ln), Op: t.Text, LHS: lhs}, nil
		}
	}
	// plain expression statement; continue parsing binary operators that
	// may follow the unary prefix we consumed
	full, err := p.continueBinary(lhs, 0)
	if err != nil {
		return nil, err
	}
	return &ExprStmt{StmtBase: p.newBaseAt(ln), X: full}, nil
}

// operator precedence (C-like).
var binaryPrec = map[string]int{
	"||": 1, "&&": 2,
	"|": 3, "^": 3, "&": 3,
	"==": 4, "!=": 4,
	"<": 5, ">": 5, "<=": 5, ">=": 5,
	"<<": 6, ">>": 6,
	"+": 7, "-": 7,
	"*": 8, "/": 8, "%": 8,
}

func (p *Parser) parseExpr() (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return p.continueBinary(lhs, 0)
}

func (p *Parser) continueBinary(lhs Expr, minPrec int) (Expr, error) {
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return lhs, nil
		}
		prec, ok := binaryPrec[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		op := p.next().Text
		rhs, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// consume higher-precedence ops on the right
		for {
			nt := p.cur()
			if nt.Kind != TokPunct {
				break
			}
			nprec, nok := binaryPrec[nt.Text]
			if !nok || nprec <= prec {
				break
			}
			rhs, err = p.continueBinary(rhs, nprec)
			if err != nil {
				return nil, err
			}
		}
		lhs = &BinaryExpr{Op: op, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "-", "!", "~", "&", "*":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &UnaryExpr{Op: t.Text, X: x}, nil
		case "(":
			// cast or parenthesized expression
			if p.toks[p.pos+1].Kind == TokIdent && IsTypeName(p.toks[p.pos+1].Text) ||
				p.toks[p.pos+1].Kind == TokKeyword && IsTypeName(p.toks[p.pos+1].Text) {
				// possible cast: (type) or (type*)
				save := p.pos
				p.next()
				typ, err := p.parseType()
				if err == nil && p.accept(")") {
					x, err := p.parseUnary()
					if err != nil {
						return nil, err
					}
					return &CastExpr{Type: typ, X: x}, nil
				}
				p.pos = save
			}
			p.next()
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return p.parsePostfix(x)
		}
	}
	if t.Kind == TokKeyword && t.Text == "sizeof" {
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &SizeofExpr{Type: typ}, nil
	}
	switch t.Kind {
	case TokNumber:
		p.next()
		return parseNumber(t)
	case TokString:
		p.next()
		return &StringLit{Value: t.Text}, nil
	case TokChar:
		p.next()
		return &CharLit{Value: t.Text[0]}, nil
	case TokIdent:
		p.next()
		if p.at("(") {
			p.next()
			call := &CallExpr{Fun: t.Text}
			for !p.at(")") {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return p.parsePostfix(call)
		}
		return p.parsePostfix(&Ident{Name: t.Text})
	}
	return nil, fmt.Errorf("csrc: line %d: unexpected token %q in expression", t.Line, t.Text)
}

func (p *Parser) parsePostfix(x Expr) (Expr, error) {
	for p.at("[") {
		p.next()
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		x = &IndexExpr{X: x, Index: idx}
	}
	return x, nil
}

func parseNumber(t Token) (Expr, error) {
	text := t.Text
	if strings.ContainsAny(text, ".eE") && !strings.HasPrefix(text, "0x") && !strings.HasPrefix(text, "0X") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("csrc: line %d: bad float %q", t.Line, text)
		}
		return &NumberLit{Text: text, IsFloat: true, Float: f}, nil
	}
	n, err := strconv.ParseInt(text, 0, 64)
	if err != nil {
		return nil, fmt.Errorf("csrc: line %d: bad integer %q", t.Line, text)
	}
	return &NumberLit{Text: text, Int: n}, nil
}
