package parser

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
	"unsafe"

	"idlog/internal/lexer"
	"idlog/internal/symbol"
	"idlog/internal/value"
)

// factsWindow is the size of the window Facts reads its input through.
const factsWindow = 64 << 10

// slabLen is how many values a tuple slab holds at most.
const slabLen = 1024

// Facts reads ground facts in program syntax ("edge(a, b).") from r and
// calls fn with each fact's predicate and tuple, in source order. It is
// the one reader of fact text: it goes from bytes to tuples without a
// token stream or an AST, under the lexer's rules — % and // comments,
// quoted constants in which a doubled quote is a quote, the lexer's
// character classes, digits as sort-i constants. Propositional facts
// (p. and p().) give empty tuples. Variables, rules and ID-atom heads
// are rejected.
//
// The input is scanned by byte offset in a window of factsWindow bytes.
// A fact that runs past the end of the window is scanned again from its
// start after the window is compacted and refilled (and grown, for a
// fact longer than the window), so memory is one window plus the longest
// fact. Constants are interned as their tokens complete, left to right
// and fact by fact — the order the program parser interns them in.
//
// Each tuple is fn's to keep. A syntax error is a *Error whose position
// is relative to the start of r; an error from fn stops the scan and is
// returned as is. Facts before the offending one have been passed to fn.
func Facts(r io.Reader, fn func(pred string, t value.Tuple) error) error {
	return scanFacts(r, make([]byte, 0, factsWindow), fn)
}

// FactsString is Facts over in-memory text: src itself is the window,
// scanned in place without a copy.
func FactsString(src string, fn func(pred string, t value.Tuple) error) error {
	// The scanner writes into its window only when refilling from a
	// reader, and there is none here.
	return scanFacts(nil, unsafe.Slice(unsafe.StringData(src), len(src)), fn)
}

// errMore reports that the window ended before a token did.
var errMore = errors.New("parser: fact crosses the end of the window")

// asciiSpace, asciiDigit and asciiName are the lexer's character classes
// over ASCII, for the byte-at-a-time loops.
var asciiSpace, asciiDigit, asciiName = func() (sp, dg, nm [utf8.RuneSelf]bool) {
	for c := rune(0); c < utf8.RuneSelf; c++ {
		sp[c], dg[c], nm[c] = lexer.IsSpace(c), lexer.IsDigit(c), lexer.IsNameRune(c)
	}
	return
}()

// cursor is the scan position: what a fact that crosses the window's
// end rewinds to.
type cursor struct {
	pos       int  // offset into the window
	line      int  // source line of pos
	lineStart int  // window offset where that line starts
	lineRunes int  // runes of that line compacted out before lineStart
	comment   bool // pos is inside a comment
}

type factScanner struct {
	cursor
	r   io.Reader // nil when the window holds the whole input
	buf []byte    // the window; capacity past len is room to refill
	eof bool      // the window's end is the input's end

	pred string        // the previous fact's predicate
	args []value.Value // the current fact's arguments
	slab []value.Value // emitted tuples are cut from here
	unq  []byte        // a quoted constant with its doubled quotes undone
}

func scanFacts(r io.Reader, buf []byte, fn func(pred string, t value.Tuple) error) error {
	s := &factScanner{r: r, buf: buf, eof: r == nil, cursor: cursor{line: 1}}
	for {
		// Blanks and comments between facts are consumed as they come,
		// so a long comment never grows the window.
		if err := s.skip(); err == errMore {
			if err := s.refill(s.pos); err != nil {
				return err
			}
			continue
		}
		if s.pos == len(s.buf) {
			return nil
		}
		start := s.cursor
		err := s.fact(fn)
		if err == nil {
			continue
		}
		if err != errMore {
			return err
		}
		s.cursor = start
		if err := s.refill(s.pos); err != nil {
			return err
		}
	}
}

// refill drops the window before offset keep and reads more input after
// what remains. A window that keep==0 leaves full is doubled first.
func (s *factScanner) refill(keep int) error {
	if keep > 0 {
		s.lineRunes += utf8.RuneCount(s.buf[s.lineStart:keep])
		s.lineStart = 0
		s.buf = s.buf[:copy(s.buf, s.buf[keep:])]
		s.pos -= keep
	}
	if len(s.buf) == cap(s.buf) {
		grown := make([]byte, len(s.buf), max(2*cap(s.buf), 16))
		copy(grown, s.buf)
		s.buf = grown
	}
	for empty := 0; empty < 100; empty++ {
		n, err := s.r.Read(s.buf[len(s.buf):cap(s.buf)])
		s.buf = s.buf[:len(s.buf)+n]
		if err == io.EOF {
			s.eof = true
			return nil
		}
		if err != nil || n > 0 {
			return err
		}
	}
	return io.ErrNoProgress
}

// fact scans the fact at s.pos, a non-blank byte, and passes it to fn.
func (s *factScanner) fact(fn func(pred string, t value.Tuple) error) error {
	start := s.pos
	r, w, err := s.peek()
	if err != nil {
		return err
	}
	switch {
	case r == '\'':
		return s.errorf(start, "quoted constant cannot be used as a predicate name")
	case !lexer.IsIdentStart(r):
		return s.expected("identifier")
	}
	end, err := s.nameEnd(start + w)
	if err != nil {
		return err
	}
	s.pos = end
	pred := s.buf[start:end]
	s.args = s.args[:0]
	if r, _, err = s.next(); err != nil {
		return err
	}
	switch r {
	case '(':
		s.pos++
		if err := s.argList(pred); err != nil {
			return err
		}
		if r, _, err = s.next(); err != nil {
			return err
		}
	case '[':
		return s.errorf(s.pos, "clause head %s may not be an ID-atom", pred)
	}
	switch r {
	case '.':
		s.pos++
	case ':':
		if s.pos+1 == len(s.buf) && !s.eof {
			return errMore
		}
		if s.pos+1 < len(s.buf) && s.buf[s.pos+1] == '-' {
			return s.errorf(s.pos, "%s is not a fact: it has a rule body", pred)
		}
		return s.expected("':-' or '.' after clause head")
	default:
		return s.expected("':-' or '.' after clause head")
	}
	if string(pred) != s.pred {
		s.pred = string(pred)
	}
	n := len(s.args)
	if cap(s.slab)-len(s.slab) < n || s.slab == nil {
		// Slabs double up to slabLen values: a few facts (a request's
		// batch) must not pin a large slab in the database they join.
		s.slab = make([]value.Value, 0, max(min(2*cap(s.slab), slabLen), n, 16))
	}
	t := s.slab[len(s.slab) : len(s.slab)+n : len(s.slab)+n]
	copy(t, s.args)
	s.slab = s.slab[:len(s.slab)+n]
	return fn(s.pred, t)
}

// argList scans the arguments after a fact's '(' up to its ')'.
func (s *factScanner) argList(pred []byte) error {
	r, _, err := s.next()
	if err != nil {
		return err
	}
	if r == ')' {
		s.pos++
		return nil
	}
	for {
		v, err := s.term(pred)
		if err != nil {
			return err
		}
		s.args = append(s.args, v)
		if r, _, err = s.next(); err != nil {
			return err
		}
		switch r {
		case ',':
			s.pos++
		case ')':
			s.pos++
			return nil
		default:
			return s.expected("',' or ')' in argument list")
		}
	}
}

// term scans the constant that comes next.
func (s *factScanner) term(pred []byte) (value.Value, error) {
	r, w, err := s.next()
	switch {
	case err != nil:
		return value.Value{}, err
	case w == 0:
		return value.Value{}, s.expected("a term")
	case r == '\'':
		return s.quoted()
	case lexer.IsDigit(r):
		return s.number()
	case lexer.IsIdentStart(r):
		end, err := s.nameEnd(s.pos + w)
		if err != nil {
			return value.Value{}, err
		}
		v := value.Sym(symbol.InternBytes(s.buf[s.pos:end]))
		s.pos = end
		return v, nil
	case lexer.IsVarStart(r):
		end, err := s.nameEnd(s.pos + w)
		if err != nil {
			return value.Value{}, err
		}
		return value.Value{}, s.errorf(s.pos, "%s is not a fact: argument %s is a variable", pred, s.buf[s.pos:end])
	default:
		return value.Value{}, s.expected("a term")
	}
}

// number scans the sort-i constant at s.pos.
func (s *factScanner) number() (value.Value, error) {
	i, ascii := s.pos, true
	for {
		if i == len(s.buf) {
			if !s.eof {
				return value.Value{}, errMore
			}
			break
		}
		if c := s.buf[i]; c < utf8.RuneSelf {
			if !asciiDigit[c] {
				break
			}
			i++
			continue
		}
		if !s.eof && !utf8.FullRune(s.buf[i:]) {
			return value.Value{}, errMore
		}
		r, w := utf8.DecodeRune(s.buf[i:])
		if !lexer.IsDigit(r) {
			break
		}
		ascii = false
		i += w
	}
	text := s.buf[s.pos:i]
	var n int64
	if ascii && len(text) <= 18 {
		for _, c := range text {
			n = n*10 + int64(c-'0')
		}
	} else {
		v, err := strconv.ParseInt(string(text), 10, 64)
		if err != nil {
			return value.Value{}, s.errorf(s.pos, "number %q out of range", text)
		}
		n = v
	}
	s.pos = i
	return value.Int(n), nil
}

// quoted scans the quoted constant at s.pos, in which a doubled quote
// is a quote.
func (s *factScanner) quoted() (value.Value, error) {
	open := s.pos
	seg := open + 1 // start of the text not yet copied to s.unq
	for i := seg; ; i++ {
		if i == len(s.buf) {
			if !s.eof {
				return value.Value{}, errMore
			}
			return value.Value{}, s.errorf(open, "unterminated quoted constant")
		}
		switch s.buf[i] {
		case '\n':
			return value.Value{}, s.errorf(open, "unterminated quoted constant")
		case '\'':
			if i+1 == len(s.buf) && !s.eof {
				return value.Value{}, errMore
			}
			if i+1 < len(s.buf) && s.buf[i+1] == '\'' {
				if seg == open+1 {
					s.unq = s.unq[:0]
				}
				s.unq = append(s.unq, s.buf[seg:i+1]...)
				i++
				seg = i + 1
				continue
			}
			name := s.buf[seg:i]
			if seg != open+1 {
				s.unq = append(s.unq, name...)
				name = s.unq
			}
			s.pos = i + 1
			return value.Sym(symbol.InternBytes(validUTF8(name))), nil
		}
	}
}

// validUTF8 returns b with every byte that is not part of a valid UTF-8
// sequence replaced by U+FFFD, as the lexer's rune-by-rune copy of a
// quoted constant does.
func validUTF8(b []byte) []byte {
	if utf8.Valid(b) {
		return b
	}
	out := make([]byte, 0, len(b)+8)
	for len(b) > 0 {
		r, w := utf8.DecodeRune(b)
		out = utf8.AppendRune(out, r)
		b = b[w:]
	}
	return out
}

// nameEnd returns the end of the name whose remaining runes start at i.
func (s *factScanner) nameEnd(i int) (int, error) {
	for {
		if i == len(s.buf) {
			if !s.eof {
				return 0, errMore
			}
			return i, nil
		}
		if c := s.buf[i]; c < utf8.RuneSelf {
			if !asciiName[c] {
				return i, nil
			}
			i++
			continue
		}
		if !s.eof && !utf8.FullRune(s.buf[i:]) {
			return 0, errMore
		}
		r, w := utf8.DecodeRune(s.buf[i:])
		if !lexer.IsNameRune(r) {
			return i, nil
		}
		i += w
	}
}

// next skips blanks and comments and peeks at the rune after them.
func (s *factScanner) next() (rune, int, error) {
	if err := s.skip(); err != nil {
		return 0, 0, err
	}
	return s.peek()
}

// peek decodes the rune at s.pos; w is 0 at the end of the input.
func (s *factScanner) peek() (r rune, w int, err error) {
	if s.pos == len(s.buf) {
		if s.eof {
			return 0, 0, nil
		}
		return 0, 0, errMore
	}
	if c := s.buf[s.pos]; c < utf8.RuneSelf {
		return rune(c), 1, nil
	}
	if !s.eof && !utf8.FullRune(s.buf[s.pos:]) {
		return 0, 0, errMore
	}
	r, w = utf8.DecodeRune(s.buf[s.pos:])
	return r, w, nil
}

// skip advances past blanks and % or // comments, stopping at the first
// other rune or the end of the input.
func (s *factScanner) skip() error {
	for {
		if s.comment {
			i := bytes.IndexByte(s.buf[s.pos:], '\n')
			if i < 0 {
				s.pos = len(s.buf)
				if s.eof {
					return nil
				}
				return errMore
			}
			s.pos += i
			s.comment = false
		}
		if s.pos == len(s.buf) {
			if s.eof {
				return nil
			}
			return errMore
		}
		c := s.buf[s.pos]
		switch {
		case c == '\n':
			s.pos++
			s.line++
			s.lineStart, s.lineRunes = s.pos, 0
		case c == '%':
			s.comment = true
			s.pos++
		case c == '/':
			if s.pos+1 == len(s.buf) && !s.eof {
				return errMore
			}
			if s.pos+1 == len(s.buf) || s.buf[s.pos+1] != '/' {
				return nil
			}
			s.comment = true
			s.pos += 2
		case c < utf8.RuneSelf:
			if !asciiSpace[c] {
				return nil
			}
			s.pos++
		default:
			r, w, err := s.peek()
			if err != nil || !lexer.IsSpace(r) {
				return err
			}
			s.pos += w
		}
	}
}

// expected reports that the token at s.pos is not what the grammar
// wants there, naming the token as the program parser would. No token
// spans lines, so the rest of the line names it; a window that ends
// first is refilled.
func (s *factScanner) expected(what string) error {
	rest := s.buf[s.pos:]
	if i := bytes.IndexByte(rest, '\n'); i >= 0 {
		rest = rest[:i]
	} else if !s.eof {
		return errMore
	}
	tok := lexer.New(string(rest)).Next()
	return s.errorf(s.pos, "expected %s, found %s %q", what, tok.Kind, tok.Text)
}

// errorf builds a *Error at window offset at, on the current line.
func (s *factScanner) errorf(at int, format string, args ...any) error {
	col := s.lineRunes + utf8.RuneCount(s.buf[s.lineStart:at]) + 1
	return &Error{Pos: lexer.Pos{Line: s.line, Col: col}, Msg: fmt.Sprintf(format, args...)}
}
