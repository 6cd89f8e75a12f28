package parser

import (
	"reflect"
	"strings"
	"testing"

	"idlog/internal/analysis"
	"idlog/internal/ast"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := Program(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return p
}

func TestFact(t *testing.T) {
	p := mustParse(t, "emp(joe, toys).")
	if len(p.Clauses) != 1 || !p.Clauses[0].IsFact() {
		t.Fatalf("expected one fact, got %v", p)
	}
	h := p.Clauses[0].Head
	if h.Pred != "emp" || len(h.Args) != 2 {
		t.Fatalf("head = %v", h)
	}
}

func TestPaperSamplingClause(t *testing.T) {
	// The paper's flagship example (§1):
	//   select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.
	p := mustParse(t, "select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.")
	c := p.Clauses[0]
	if c.Head.Pred != "select_two_emp" {
		t.Fatalf("head = %v", c.Head)
	}
	if len(c.Body) != 2 {
		t.Fatalf("body length %d", len(c.Body))
	}
	idAtom := c.Body[0].Atom
	if !idAtom.IsID || idAtom.Pred != "emp" {
		t.Fatalf("first literal should be ID-atom emp[2], got %v", idAtom)
	}
	if len(idAtom.Group) != 1 || idAtom.Group[0] != 1 {
		t.Fatalf("group positions = %v, want [1] (0-based for source position 2)", idAtom.Group)
	}
	if idAtom.BaseArity() != 2 {
		t.Fatalf("base arity = %d, want 2", idAtom.BaseArity())
	}
	cmp := c.Body[1].Atom
	if cmp.Pred != "lt" || len(cmp.Args) != 2 {
		t.Fatalf("comparison literal = %v", cmp)
	}
}

func TestChoiceLiteral(t *testing.T) {
	p := mustParse(t, "all_depts(Dept) :- emp(Name, Dept), choice((Dept), (Name)).")
	c := p.Clauses[0]
	if len(c.Body) != 2 || !c.Body[1].IsChoice() {
		t.Fatalf("choice literal not parsed: %v", c)
	}
	ch := c.Body[1].Choice
	if len(ch.Domain) != 1 || len(ch.Range) != 1 {
		t.Fatalf("choice = %v", ch)
	}
	if !p.HasChoice() {
		t.Fatalf("HasChoice() = false")
	}
}

func TestEmptyChoiceDomain(t *testing.T) {
	// choice((),(Y)) chooses a single Y globally, as in the paper's
	// sex(X, Y) :- sex_guess(X, Y), choice((X), (Y)) family.
	p := mustParse(t, "one(Y) :- p(Y), choice((), (Y)).")
	ch := p.Clauses[0].Body[1].Choice
	if len(ch.Domain) != 0 || len(ch.Range) != 1 {
		t.Fatalf("choice = %v", ch)
	}
}

func TestNegation(t *testing.T) {
	p := mustParse(t, "man(X) :- person(X), not woman(X).")
	if !p.Clauses[0].Body[1].Neg {
		t.Fatalf("negation not parsed")
	}
}

func TestUngroupedIDAtom(t *testing.T) {
	p := mustParse(t, "p(X) :- q[](X, T).")
	a := p.Clauses[0].Body[0].Atom
	if !a.IsID || len(a.Group) != 0 {
		t.Fatalf("q[] atom = %+v", a)
	}
}

func TestMultiColumnGroup(t *testing.T) {
	p := mustParse(t, "p(X) :- q[1,3](X, Y, Z, T).")
	a := p.Clauses[0].Body[0].Atom
	if len(a.Group) != 2 || a.Group[0] != 0 || a.Group[1] != 2 {
		t.Fatalf("group = %v", a.Group)
	}
}

func TestPropositionalAtoms(t *testing.T) {
	p := mustParse(t, "q1 :- x(c).\nq2 :- x(a).\nrain.")
	if p.Clauses[0].Head.Pred != "q1" || len(p.Clauses[0].Head.Args) != 0 {
		t.Fatalf("propositional head = %v", p.Clauses[0].Head)
	}
	if !p.Clauses[2].IsFact() {
		t.Fatalf("rain should be a fact")
	}
}

func TestComparisonsAllOps(t *testing.T) {
	src := "p(X) :- q(X), X < 1, X <= 2, X > 0, X >= 0, X = 1, X != 3."
	p := mustParse(t, src)
	preds := []string{"q", "lt", "le", "gt", "ge", "eq", "neq"}
	for i, want := range preds {
		if got := p.Clauses[0].Body[i].Atom.Pred; got != want {
			t.Fatalf("literal %d pred = %q, want %q", i, got, want)
		}
	}
}

func TestNumbersAndConstants(t *testing.T) {
	p := mustParse(t, "p(42, foo, Bar, 'Quoted Konst').")
	args := p.Clauses[0].Head.Args
	if _, ok := args[0].(ast.Const); !ok {
		t.Fatalf("42 not a constant")
	}
	if v, ok := args[2].(ast.Var); !ok || v.Name != "Bar" {
		t.Fatalf("Bar not a variable: %v", args[2])
	}
	if c, ok := args[3].(ast.Const); !ok || c.Val.String() != "Quoted Konst" {
		t.Fatalf("quoted constant = %v", args[3])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"p(X)",                         // missing period
		"p(X) :- .",                    // empty body
		"p(X) :- q(X),.",               // dangling comma
		"p[1](X, T) :- q(X).",          // ID-atom in head
		"p(X) :- q[0](X, T).",          // grouping position < 1
		"p(X) :- q[3](X, T).",          // grouping exceeds base arity
		"p(X) :- q[1].",                // ID-atom without args
		"p(X) :- not choice((X),(X)).", // negated choice
		"p(X) :- choice((X), ()).",     // empty choice range
		"p(X :- q(X).",                 // mangled parens
		":- q(X).",                     // missing head
		"p(X) :- q(X) r(X).",           // missing comma
		"p(£).",                        // invalid rune
	}
	for _, src := range bad {
		if _, err := Program(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestErrorsCarryPositions(t *testing.T) {
	_, err := Program("p(a).\nq(b) :- !r(b).")
	if err == nil {
		t.Fatalf("expected error")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if perr.Pos.Line != 2 {
		t.Fatalf("error line = %d, want 2 (%v)", perr.Pos.Line, err)
	}
	if !strings.Contains(err.Error(), "parse error at 2:") {
		t.Fatalf("error text %q lacks position", err)
	}
}

func TestClauseEntryPoint(t *testing.T) {
	c, err := Clause("p(X) :- q(X).")
	if err != nil || c.Head.Pred != "p" {
		t.Fatalf("Clause: %v %v", c, err)
	}
	if _, err := Clause("p(X) :- q(X). extra"); err == nil {
		t.Fatalf("trailing input not rejected")
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{
		"emp(joe, toys).",
		"select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.",
		"all_depts(Dept) :- emp(Name, Dept), choice((Dept), (Name)).",
		"man(X) :- sex_guess[1](X, male, 1).",
		"p(X) :- q(X, Z), not r(Z), Z >= 0.",
		"p(X) :- q[](X, T), T = 0.",
		"t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, Z), t(Z, Y).",
		"q1 :- x(c).",
	}
	for _, src := range srcs {
		p1 := mustParse(t, src)
		printed := p1.String()
		p2, err := Program(printed)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v\nprinted: %s", src, err, printed)
		}
		if p2.String() != printed {
			t.Fatalf("print/parse not a fixpoint for %q:\nfirst:  %s\nsecond: %s", src, printed, p2.String())
		}
	}
}

func TestInputAndHeadPreds(t *testing.T) {
	p := mustParse(t, `
		select(N) :- emp[2](N, D, T), T < 2.
		big(D) :- dept(D), size(D, S), S > 10.
	`)
	info, err := analysis.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]bool{"dept": true, "emp": true, "size": true}; !reflect.DeepEqual(info.EDB, want) {
		t.Fatalf("inputs = %v, want dept, emp, size", info.EDB)
	}
	if want := map[string]bool{"big": true, "select": true}; !reflect.DeepEqual(info.IDB, want) {
		t.Fatalf("heads = %v, want big, select", info.IDB)
	}
}

func TestQuotedConstantRejectedAsPredicate(t *testing.T) {
	for _, src := range []string{"''.", "'foo bar'(x).", "p(X) :- 'q'(X)."} {
		if _, err := Program(src); err == nil {
			t.Errorf("quoted predicate accepted: %q", src)
		}
	}
	// Quoted keywords must act as constants, not keywords.
	p := mustParse(t, "p(X) :- q(X, 'not'), r('choice').")
	if p.Clauses[0].Body[0].Neg {
		t.Fatalf("quoted 'not' treated as negation")
	}
}

func TestEmptyArgIDAtomRejected(t *testing.T) {
	if _, err := Program("a :- b[]()."); err == nil {
		t.Fatalf("ID-atom with no arguments accepted")
	}
}

func TestQuotedConstantRoundTrip(t *testing.T) {
	srcs := []string{
		"p('quoted konst', 42).",
		"p('it''s').",
		"p('').",
		"p('Not', 'CHOICE').",
	}
	for _, src := range srcs {
		p1 := mustParse(t, src)
		printed := p1.String()
		p2, err := Program(printed)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v (printed %q)", src, err, printed)
		}
		if p2.String() != printed {
			t.Fatalf("not a fixpoint: %q -> %q -> %q", src, printed, p2.String())
		}
	}
}

func TestRulePartsDirect(t *testing.T) {
	head, body, err := RuleParts("a(X), not b(X) :- c(X), X < 3.")
	if err != nil {
		t.Fatal(err)
	}
	if len(head) != 2 || !head[1].Neg || len(body) != 2 {
		t.Fatalf("head=%v body=%v", head, body)
	}
	// Fact form.
	head, body, err = RuleParts("a(1).")
	if err != nil || len(head) != 1 || len(body) != 0 {
		t.Fatalf("fact: %v %v %v", head, body, err)
	}
	// Errors.
	for _, bad := range []string{
		"choice((X),(Y)) :- p(X, Y).",
		"a(X) :- b(X)",
		"a(X) :- b(X). trailing",
		"a(X) :-",
		":- b(X).",
	} {
		if _, _, err := RuleParts(bad); err == nil {
			t.Errorf("RuleParts accepted %q", bad)
		}
	}
}
