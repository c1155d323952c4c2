package csrc

import (
	"fmt"
	"strings"
)

// Lexer tokenizes a C-subset source string.
type Lexer struct {
	src     string
	pos     int
	line    int
	col     int
	defines map[string]string // object-like #define macros
	toks    []Token
}

// Lex tokenizes src, expanding object-like #define macros and dropping
// #include lines and comments. It returns the token stream (terminated by
// a TokEOF token) and the macro table.
func Lex(src string) ([]Token, map[string]string, error) {
	l := &Lexer{src: src, line: 1, col: 1, defines: map[string]string{}}
	if err := l.run(); err != nil {
		return nil, nil, err
	}
	return l.toks, l.defines, nil
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) emit(kind TokKind, text string, line, col int) {
	l.emitDepth(kind, text, line, col, 0)
}

func (l *Lexer) emitDepth(kind TokKind, text string, line, col, depth int) {
	// expand object-like macros (recursively: macro bodies may reference
	// other macros; depth-limited against accidental cycles)
	if kind == TokIdent && depth < 16 {
		if repl, ok := l.defines[text]; ok {
			sub, _, err := Lex(repl)
			if err == nil {
				for _, t := range sub {
					if t.Kind == TokEOF {
						break
					}
					l.emitDepth(t.Kind, t.Text, line, col, depth+1)
				}
				return
			}
		}
	}
	if kind == TokIdent && keywords[text] {
		kind = TokKeyword
	}
	l.toks = append(l.toks, Token{Kind: kind, Text: text, Line: line, Col: col})
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *Lexer) run() error {
	for l.pos < len(l.src) {
		c := l.peek()
		line, col := l.line, l.col
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		case c == '#':
			if err := l.directive(); err != nil {
				return err
			}
		case isIdentStart(c):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(l.peek()) {
				l.advance()
			}
			l.emit(TokIdent, l.src[start:l.pos], line, col)
		case isDigit(c) || (c == '.' && isDigit(l.peek2())):
			start := l.pos
			seenDot, seenExp := false, false
			isHex := false
			for l.pos < len(l.src) {
				ch := l.peek()
				if (ch == 'x' || ch == 'X') && l.src[start:l.pos] == "0" {
					isHex = true
					l.advance()
					continue
				}
				if isDigit(ch) || (isHex && ((ch >= 'a' && ch <= 'f') || (ch >= 'A' && ch <= 'F'))) {
					l.advance()
					continue
				}
				if ch == '.' && !seenDot && !isHex {
					seenDot = true
					l.advance()
					continue
				}
				if (ch == 'e' || ch == 'E') && !seenExp && !isHex {
					seenExp = true
					l.advance()
					if l.peek() == '+' || l.peek() == '-' {
						l.advance()
					}
					continue
				}
				if ch == 'L' || ch == 'U' || ch == 'l' || ch == 'u' {
					l.advance()
					continue
				}
				break
			}
			text := l.src[start:l.pos]
			text = strings.TrimRight(text, "LUlu")
			l.emit(TokNumber, text, line, col)
		case c == '"':
			l.advance()
			var sb strings.Builder
			for l.pos < len(l.src) && l.peek() != '"' {
				ch := l.advance()
				if ch == '\\' && l.pos < len(l.src) {
					esc := l.advance()
					switch esc {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					case '\\', '"':
						sb.WriteByte(esc)
					default:
						sb.WriteByte(esc)
					}
					continue
				}
				sb.WriteByte(ch)
			}
			if l.pos >= len(l.src) {
				return fmt.Errorf("csrc: line %d: unterminated string", line)
			}
			l.advance() // closing quote
			l.emit(TokString, sb.String(), line, col)
		case c == '\'':
			l.advance()
			var val byte
			if l.peek() == '\\' {
				l.advance()
				val = l.advance()
				switch val {
				case 'n':
					val = '\n'
				case 't':
					val = '\t'
				case '0':
					val = 0
				}
			} else {
				val = l.advance()
			}
			if l.peek() != '\'' {
				return fmt.Errorf("csrc: line %d: bad char literal", line)
			}
			l.advance()
			l.emit(TokChar, string(val), line, col)
		default:
			// multi-char operators, longest first
			ops := []string{
				"<<=", ">>=", "...",
				"==", "!=", "<=", ">=", "&&", "||", "++", "--",
				"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->", "<<", ">>",
			}
			matched := false
			for _, op := range ops {
				if strings.HasPrefix(l.src[l.pos:], op) {
					for range op {
						l.advance()
					}
					l.emit(TokPunct, op, line, col)
					matched = true
					break
				}
			}
			if matched {
				continue
			}
			switch c {
			case '+', '-', '*', '/', '%', '<', '>', '=', '!', '&', '|', '^', '~',
				'(', ')', '{', '}', '[', ']', ';', ',', '.', '?', ':':
				l.advance()
				l.emit(TokPunct, string(c), line, col)
			default:
				return fmt.Errorf("csrc: line %d:%d: unexpected character %q", line, col, c)
			}
		}
	}
	l.toks = append(l.toks, Token{Kind: TokEOF, Line: l.line, Col: l.col})
	return nil
}

// directive handles #include (skipped) and #define NAME value.
func (l *Lexer) directive() error {
	start := l.pos
	for l.pos < len(l.src) && l.peek() != '\n' {
		// support line continuation
		if l.peek() == '\\' && l.peek2() == '\n' {
			l.advance()
			l.advance()
			continue
		}
		l.advance()
	}
	text := l.src[start:l.pos]
	fields := strings.Fields(strings.TrimPrefix(text, "#"))
	if len(fields) == 0 {
		return nil
	}
	switch fields[0] {
	case "include", "pragma", "ifdef", "ifndef", "endif", "if", "undef":
		return nil
	case "define":
		if len(fields) >= 3 && !strings.Contains(fields[1], "(") {
			l.defines[fields[1]] = strings.Join(fields[2:], " ")
		}
		return nil
	default:
		return nil
	}
}
