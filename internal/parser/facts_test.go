package parser

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"idlog/internal/ast"
	"idlog/internal/value"
)

type scannedFact struct {
	pred  string
	tuple value.Tuple
}

func (f scannedFact) String() string { return f.pred + f.tuple.String() }

func sameFacts(a, b []scannedFact) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].pred != b[i].pred || !a[i].tuple.Equal(b[i].tuple) {
			return false
		}
	}
	return true
}

// collect gathers what a scan hands to its callback.
func collect(scan func(fn func(string, value.Tuple) error) error) ([]scannedFact, error) {
	var out []scannedFact
	err := scan(func(pred string, t value.Tuple) error {
		out = append(out, scannedFact{pred, t})
		return nil
	})
	return out, err
}

// viaProgram is the reference reader: the program parser, accepting
// only when every clause is a ground fact.
func viaProgram(src string) ([]scannedFact, bool) {
	prog, err := Program(src)
	if err != nil {
		return nil, false
	}
	var out []scannedFact
	for _, c := range prog.Clauses {
		if !c.IsFact() || c.Head.IsID {
			return nil, false
		}
		t := value.Tuple{}
		for _, a := range c.Head.Args {
			cst, ok := a.(ast.Const)
			if !ok {
				return nil, false
			}
			t = append(t, cst.Val)
		}
		out = append(out, scannedFact{c.Head.Pred, t})
	}
	return out, true
}

// scans are the ways the tests drive the scanner over one text: the
// whole text as the window and the default window over a reader; and,
// for short texts, two readers into a window that starts at one byte —
// one fills half the free window per call, the other yields one byte,
// so every fact crosses the window's end at every offset. (Each refill
// rescans the fact, and refill counts grow with the text, which would
// steer the fuzzer towards ever longer inputs it cannot minimize.)
func scans(src string) []scan {
	out := []scan{
		{"string", func(fn func(string, value.Tuple) error) error { return FactsString(src, fn) }},
		{"reader", func(fn func(string, value.Tuple) error) error { return Facts(strings.NewReader(src), fn) }},
	}
	if len(src) <= 256 {
		out = append(out, scan{"halves", func(fn func(string, value.Tuple) error) error {
			return scanFacts(iotest.HalfReader(strings.NewReader(src)), make([]byte, 0, 1), fn)
		}}, scan{"bytewise", func(fn func(string, value.Tuple) error) error {
			return scanFacts(iotest.OneByteReader(strings.NewReader(src)), make([]byte, 0, 1), fn)
		}})
	}
	return out
}

type scan struct {
	name string
	run  func(fn func(string, value.Tuple) error) error
}

// FuzzFacts checks the fact scanner against the program parser: it
// accepts exactly the texts the parser accepts as all ground facts, and
// yields the same (predicate, tuple) sequence — however the text is cut
// into windows, which does not change an error either.
func FuzzFacts(f *testing.F) {
	seeds := []string{
		"edge(a, b). edge(b, c).",
		"p('weird . name', 'it''s', '100% sure').",
		"% comment. with dots\np(a). // trailing. comment\n",
		"p(日本, ünï_côdé2).",
		"p. q(). r( ).",
		"p[1](a).",
		"p(X).",
		"tc(X, Y) :- e(X, Y).",
		"p :- q.",
		"p(99999999999999999999).",
		"p(٣).",
		"p(a)",
		"p(a). q(b",
		"p(00042, 7).",
		"'q'(a).",
		"p(a) . q\n(\nb\n)\n.",
		"p('a\nb').",
		"p('\xff\xfe').",
		"p(a). q(b).",
		"p(a)/",
		"p(a, ,b).",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, ok := viaProgram(src)
		var firstErr error
		for i, sc := range scans(src) {
			name := sc.name
			got, err := collect(sc.run)
			if ok != (err == nil) {
				t.Fatalf("%s: program parser accepts=%v, scanner error %v\nsource: %q", name, ok, err, src)
			}
			if err != nil {
				var pe *Error
				if !errors.As(err, &pe) {
					t.Fatalf("%s: error %v is %T, want *parser.Error\nsource: %q", name, err, err, src)
				}
				if i == 0 {
					firstErr = err
				} else if err.Error() != firstErr.Error() {
					t.Fatalf("%s: error %q, whole-text scan %q\nsource: %q", name, err, firstErr, src)
				}
				continue
			}
			if !sameFacts(got, want) {
				t.Fatalf("%s: scanner %v, program parser %v\nsource: %q", name, got, want, src)
			}
		}
	})
}

func TestFactsAcceptsFactText(t *testing.T) {
	src := "% header\nedge(a, b). edge(b, 'c.d').\n// note\nw(a, 10). flag.\nempty().\nedge(\n  c,\n  'it''s'\n).\n"
	want := []scannedFact{
		{"edge", value.Strs("a", "b")},
		{"edge", value.Strs("b", "c.d")},
		{"w", value.Tuple{value.Str("a"), value.Int(10)}},
		{"flag", value.Tuple{}},
		{"empty", value.Tuple{}},
		{"edge", value.Strs("c", "it's")},
	}
	for _, sc := range scans(src) {
		name := sc.name
		got, err := collect(sc.run)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameFacts(got, want) {
			t.Fatalf("%s: got %v, want %v", name, got, want)
		}
	}
}

func TestFactsErrors(t *testing.T) {
	cases := []struct {
		src, pos, msg string
	}{
		{"p(a).\nq(b).\nr(X).", "3:3", "r is not a fact: argument X is a variable"},
		{"tc(X, Y) :- e(X, Y).", "1:4", "is not a fact"},
		{"p :- q.", "1:3", "p is not a fact: it has a rule body"},
		{"p(a) :- q.", "1:6", "p is not a fact: it has a rule body"},
		{"p[1](a).", "1:2", "may not be an ID-atom"},
		{"p(99999999999999999999).", "1:3", "out of range"},
		{"p(a)", "1:5", "expected ':-' or '.' after clause head, found end of input"},
		{"p(a, ,b).", "1:6", "expected a term, found ','"},
		{"'q'(a).", "1:1", "predicate name"},
		{"X(a).", "1:1", "expected identifier, found variable \"X\""},
		{"p('abc\n').", "1:3", "unterminated quoted constant"},
		{"p(a). % ok\n  q(é, ü) r(b).", "2:11", "expected ':-' or '.' after clause head, found identifier \"r\""},
	}
	for _, c := range cases {
		for _, sc := range scans(c.src) {
			name := sc.name
			_, err := collect(sc.run)
			var pe *Error
			if !errors.As(err, &pe) {
				t.Fatalf("%s: %q: error %v, want *parser.Error", name, c.src, err)
			}
			if pe.Pos.String() != c.pos || !strings.Contains(pe.Msg, c.msg) {
				t.Errorf("%s: %q: error at %s %q, want %s containing %q", name, c.src, pe.Pos, pe.Msg, c.pos, c.msg)
			}
		}
	}
}

// A fact and a comment longer than the window both scan.
func TestFactsWindowRefill(t *testing.T) {
	long := strings.Repeat("x", 3*factsWindow)
	src := "% " + strings.Repeat("c", 2*factsWindow) + "\np(a).\nq('" + long + "', b).\nr(c).\n"
	got, err := collect(func(fn func(string, value.Tuple) error) error { return Facts(strings.NewReader(src), fn) })
	if err != nil {
		t.Fatal(err)
	}
	want := []scannedFact{
		{"p", value.Strs("a")},
		{"q", value.Strs(long, "b")},
		{"r", value.Strs("c")},
	}
	if !sameFacts(got, want) {
		t.Fatalf("got %d facts, want p(a), q(<%d x>, b), r(c)", len(got), len(long))
	}
}

// The error position of a fact past several refills is still counted
// from the start of the input.
func TestFactsErrorPositionAcrossWindows(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "edge(n%d, n%d). ", i, i+1)
		if i%10 == 9 {
			b.WriteString("\n")
		}
	}
	b.WriteString("edge(n1, é, Oops).\n")
	for _, size := range []int{1, 7, 64, 4096} {
		err := scanFacts(iotest.HalfReader(strings.NewReader(b.String())), make([]byte, 0, size), func(string, value.Tuple) error { return nil })
		var pe *Error
		if !errors.As(err, &pe) || pe.Pos.String() != "11:13" {
			t.Fatalf("window %d: error %v, want one at 11:13", size, err)
		}
	}
}

func TestFactsCallbackErrorStops(t *testing.T) {
	stop := errors.New("stop")
	n := 0
	err := FactsString("p(a). p(b). p(c).", func(string, value.Tuple) error {
		n++
		if n == 2 {
			return stop
		}
		return nil
	})
	if err != stop || n != 2 {
		t.Fatalf("err = %v after %d facts, want stop after 2", err, n)
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

func TestFactsReaderError(t *testing.T) {
	if err := Facts(failingReader{}, func(string, value.Tuple) error { return nil }); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want the reader's error", err)
	}
}

// Interning order is the program parser's: left to right, fact by fact.
// Symbol IDs, and with them tuple hashes and insertion order, do not
// depend on which reader loaded the text.
func TestFactsInternOrder(t *testing.T) {
	src := "o(zz_intern_order_3, zz_intern_order_1). o(zz_intern_order_2, zz_intern_order_3)."
	if _, err := collect(scans(src)[3].run); err != nil {
		t.Fatal(err)
	}
	a, b, c := value.Str("zz_intern_order_3"), value.Str("zz_intern_order_1"), value.Str("zz_intern_order_2")
	if !(a.Sym < b.Sym && b.Sym < c.Sym) {
		t.Fatalf("symbol IDs %d, %d, %d are not in first-occurrence order", a.Sym, b.Sym, c.Sym)
	}
}

func BenchmarkFacts(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&sb, "edge(n%d, n%d).\n", i%5000, (i*7+3)%5000)
	}
	src := sb.String()
	b.SetBytes(int64(len(src)))
	b.Run("scanner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := Facts(strings.NewReader(src), func(string, value.Tuple) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("program", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Program(src); err != nil {
				b.Fatal(err)
			}
		}
	})
}
