// Package lexer tokenizes the concrete IDLOG syntax described in
// DESIGN.md §3: Prolog-flavoured clauses with ID-predicates p[1,2],
// infix comparisons, stratified "not", and DATALOG^C "choice" literals.
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind enumerates token kinds.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	Ident
	Variable
	Number
	LParen
	RParen
	LBracket
	RBracket
	Comma
	Period
	Implies // :-
	Lt      // <
	Le      // <=
	Gt      // >
	Ge      // >=
	Eq      // =
	Neq     // !=
	Invalid
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case EOF:
		return "end of input"
	case Ident:
		return "identifier"
	case Variable:
		return "variable"
	case Number:
		return "number"
	case LParen:
		return "'('"
	case RParen:
		return "')'"
	case LBracket:
		return "'['"
	case RBracket:
		return "']'"
	case Comma:
		return "','"
	case Period:
		return "'.'"
	case Implies:
		return "':-'"
	case Lt:
		return "'<'"
	case Le:
		return "'<='"
	case Gt:
		return "'>'"
	case Ge:
		return "'>='"
	case Eq:
		return "'='"
	case Neq:
		return "'!='"
	default:
		return "invalid token"
	}
}

// Pos is a source position.
type Pos struct {
	Line, Col int
}

// String renders "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexeme with its source position. Quoted marks Ident
// tokens written as quoted constants ('like this'); they are valid
// constants but not predicate names or keywords.
type Token struct {
	Kind   Kind
	Text   string
	Pos    Pos
	Quoted bool
}

// Lexer scans an input string into tokens.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) peek() (rune, int) {
	if lx.off >= len(lx.src) {
		return 0, 0
	}
	r, w := utf8.DecodeRuneInString(lx.src[lx.off:])
	return r, w
}

func (lx *Lexer) advance(w int, r rune) {
	lx.off += w
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
}

// The character classes of the concrete syntax. The lexer and the
// ground-fact scanner of internal/parser both classify runes through
// these, so the two readers agree on what a name, a number or a blank is.

// IsSpace reports whether r separates tokens.
func IsSpace(r rune) bool { return unicode.IsSpace(r) }

// IsDigit reports whether r starts (and continues) a number token.
func IsDigit(r rune) bool { return unicode.IsDigit(r) }

// IsIdentStart reports whether r starts an identifier: a predicate
// name or an unquoted u-constant.
func IsIdentStart(r rune) bool { return unicode.IsLower(r) }

// IsVarStart reports whether r starts a variable.
func IsVarStart(r rune) bool { return r == '_' || unicode.IsUpper(r) }

// IsNameRune reports whether r continues an identifier or a variable.
func IsNameRune(r rune) bool { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }

func (lx *Lexer) skipSpaceAndComments() {
	for {
		r, w := lx.peek()
		switch {
		case w == 0:
			return
		case IsSpace(r):
			lx.advance(w, r)
		case r == '%':
			lx.skipLine()
		case r == '/' && strings.HasPrefix(lx.src[lx.off:], "//"):
			lx.skipLine()
		default:
			return
		}
	}
}

func (lx *Lexer) skipLine() {
	for {
		r, w := lx.peek()
		if w == 0 || r == '\n' {
			return
		}
		lx.advance(w, r)
	}
}

// Next scans and returns the next token.
func (lx *Lexer) Next() Token {
	lx.skipSpaceAndComments()
	pos := Pos{lx.line, lx.col}
	r, w := lx.peek()
	if w == 0 {
		return Token{Kind: EOF, Pos: pos}
	}
	switch {
	case r == '(':
		lx.advance(w, r)
		return Token{Kind: LParen, Text: "(", Pos: pos}
	case r == ')':
		lx.advance(w, r)
		return Token{Kind: RParen, Text: ")", Pos: pos}
	case r == '[':
		lx.advance(w, r)
		return Token{Kind: LBracket, Text: "[", Pos: pos}
	case r == ']':
		lx.advance(w, r)
		return Token{Kind: RBracket, Text: "]", Pos: pos}
	case r == ',':
		lx.advance(w, r)
		return Token{Kind: Comma, Text: ",", Pos: pos}
	case r == '.':
		lx.advance(w, r)
		return Token{Kind: Period, Text: ".", Pos: pos}
	case r == ':':
		lx.advance(w, r)
		if r2, w2 := lx.peek(); r2 == '-' {
			lx.advance(w2, r2)
			return Token{Kind: Implies, Text: ":-", Pos: pos}
		}
		return Token{Kind: Invalid, Text: ":", Pos: pos}
	case r == '<':
		lx.advance(w, r)
		if r2, w2 := lx.peek(); r2 == '=' {
			lx.advance(w2, r2)
			return Token{Kind: Le, Text: "<=", Pos: pos}
		}
		return Token{Kind: Lt, Text: "<", Pos: pos}
	case r == '>':
		lx.advance(w, r)
		if r2, w2 := lx.peek(); r2 == '=' {
			lx.advance(w2, r2)
			return Token{Kind: Ge, Text: ">=", Pos: pos}
		}
		return Token{Kind: Gt, Text: ">", Pos: pos}
	case r == '=':
		lx.advance(w, r)
		return Token{Kind: Eq, Text: "=", Pos: pos}
	case r == '!':
		lx.advance(w, r)
		if r2, w2 := lx.peek(); r2 == '=' {
			lx.advance(w2, r2)
			return Token{Kind: Neq, Text: "!=", Pos: pos}
		}
		return Token{Kind: Invalid, Text: "!", Pos: pos}
	case r == '\'':
		return lx.quoted(pos)
	case IsDigit(r):
		return lx.number(pos)
	case IsVarStart(r):
		return lx.name(pos, Variable)
	case IsIdentStart(r):
		return lx.name(pos, Ident)
	default:
		lx.advance(w, r)
		return Token{Kind: Invalid, Text: string(r), Pos: pos}
	}
}

func (lx *Lexer) number(pos Pos) Token {
	start := lx.off
	for {
		r, w := lx.peek()
		if w == 0 || !IsDigit(r) {
			break
		}
		lx.advance(w, r)
	}
	return Token{Kind: Number, Text: lx.src[start:lx.off], Pos: pos}
}

func (lx *Lexer) name(pos Pos, kind Kind) Token {
	start := lx.off
	for {
		r, w := lx.peek()
		if w == 0 || !IsNameRune(r) {
			break
		}
		lx.advance(w, r)
	}
	return Token{Kind: kind, Text: lx.src[start:lx.off], Pos: pos}
}

// quoted scans a single-quoted constant; ” inside quotes is an escaped
// quote. Quoted constants are Ident tokens, allowing arbitrary content.
func (lx *Lexer) quoted(pos Pos) Token {
	r, w := lx.peek() // opening quote
	lx.advance(w, r)
	var b strings.Builder
	for {
		r, w := lx.peek()
		if w == 0 || r == '\n' {
			return Token{Kind: Invalid, Text: "unterminated quoted constant", Pos: pos}
		}
		lx.advance(w, r)
		if r == '\'' {
			if r2, w2 := lx.peek(); r2 == '\'' {
				lx.advance(w2, r2)
				b.WriteByte('\'')
				continue
			}
			return Token{Kind: Ident, Text: b.String(), Pos: pos, Quoted: true}
		}
		b.WriteRune(r)
	}
}

// All scans the entire input, returning every token up to and including
// the EOF token. Used by tests.
func All(src string) []Token {
	lx := New(src)
	var out []Token
	for {
		t := lx.Next()
		out = append(out, t)
		if t.Kind == EOF || t.Kind == Invalid {
			return out
		}
	}
}
