package lexer

import "testing"

// lexAll scans the entire input, returning every token up to and
// including the EOF (or Invalid) token.
func lexAll(src string) []Token {
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

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestBasicClause(t *testing.T) {
	toks := lexAll("p(X) :- q(X, a), X < 2.")
	want := []Kind{
		Ident, LParen, Variable, RParen, Implies,
		Ident, LParen, Variable, Comma, Ident, RParen, Comma,
		Variable, Lt, Number, Period, EOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count %d, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestIDPredicateBrackets(t *testing.T) {
	toks := lexAll("emp[2](N, D, T)")
	want := []Kind{Ident, LBracket, Number, RBracket, LParen, Variable, Comma, Variable, Comma, Variable, RParen, EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: got %s, want %s (%v)", i, got[i], want[i], toks)
		}
	}
}

func TestOperators(t *testing.T) {
	toks := lexAll("< <= > >= = != :-")
	want := []Kind{Lt, Le, Gt, Ge, Eq, Neq, Implies, EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestCommentsAreSkipped(t *testing.T) {
	src := "% line comment\np(a). // another\nq(b).\n"
	toks := lexAll(src)
	var idents []string
	for _, tk := range toks {
		if tk.Kind == Ident {
			idents = append(idents, tk.Text)
		}
	}
	if len(idents) != 4 || idents[0] != "p" || idents[2] != "q" {
		t.Fatalf("idents = %v", idents)
	}
}

func TestPositions(t *testing.T) {
	toks := lexAll("p(a).\nq(b).")
	// q is the 6th token (p ( a ) . q ...)
	q := toks[5]
	if q.Text != "q" || q.Pos.Line != 2 || q.Pos.Col != 1 {
		t.Fatalf("q token position = %v (%q)", q.Pos, q.Text)
	}
}

func TestVariablesAndUnderscore(t *testing.T) {
	toks := lexAll("X _ _Foo Xyz")
	for i := 0; i < 4; i++ {
		if toks[i].Kind != Variable {
			t.Fatalf("token %d %q: got %s, want variable", i, toks[i].Text, toks[i].Kind)
		}
	}
}

func TestQuotedConstants(t *testing.T) {
	toks := lexAll("'Blvd. St. Germain' 'it''s'")
	if toks[0].Kind != Ident || toks[0].Text != "Blvd. St. Germain" {
		t.Fatalf("quoted constant: %v %q", toks[0].Kind, toks[0].Text)
	}
	if toks[1].Kind != Ident || toks[1].Text != "it's" {
		t.Fatalf("escaped quote: %v %q", toks[1].Kind, toks[1].Text)
	}
}

func TestUnterminatedQuote(t *testing.T) {
	toks := lexAll("'never ends")
	last := toks[len(toks)-1]
	if last.Kind != Invalid {
		t.Fatalf("unterminated quote should be Invalid, got %s", last.Kind)
	}
}

func TestInvalidRunes(t *testing.T) {
	toks := lexAll("p(a) & q(b)")
	sawInvalid := false
	for _, tk := range toks {
		if tk.Kind == Invalid {
			sawInvalid = true
			if tk.Text != "&" {
				t.Fatalf("invalid token text %q", tk.Text)
			}
		}
	}
	if !sawInvalid {
		t.Fatalf("'&' not reported as invalid")
	}
}

func TestLoneColonAndBangAreInvalid(t *testing.T) {
	if toks := lexAll(": p"); toks[0].Kind != Invalid {
		t.Fatalf("lone ':' should be invalid")
	}
	if toks := lexAll("! p"); toks[0].Kind != Invalid {
		t.Fatalf("lone '!' should be invalid")
	}
}

func TestNumbers(t *testing.T) {
	toks := lexAll("0 42 007")
	for i, want := range []string{"0", "42", "007"} {
		if toks[i].Kind != Number || toks[i].Text != want {
			t.Fatalf("number token %d = %v %q", i, toks[i].Kind, toks[i].Text)
		}
	}
}

func TestUnicodeIdentifiers(t *testing.T) {
	toks := lexAll("p(département)")
	if toks[2].Kind != Ident || toks[2].Text != "département" {
		t.Fatalf("unicode ident = %v %q", toks[2].Kind, toks[2].Text)
	}
}

func TestKindStringsAreTotal(t *testing.T) {
	for k := EOF; k <= Invalid; k++ {
		if k.String() == "" {
			t.Fatalf("Kind(%d).String is empty", k)
		}
	}
}
