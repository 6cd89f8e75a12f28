package ast

import (
	"fmt"
	"sort"
	"testing"

	"idlog/internal/value"
)

// predSig describes a predicate occurrence: name and base arity.
type predSig struct {
	Name  string
	Arity int
}

// String implements fmt.Stringer ("name/arity").
func (s predSig) String() string { return fmt.Sprintf("%s/%d", s.Name, s.Arity) }

// headPreds returns the set of predicates appearing in clause heads
// (the output predicates in the paper's terminology, §3.1), sorted.
func headPreds(p *Program) []predSig {
	set := map[predSig]bool{}
	for _, c := range p.Clauses {
		set[predSig{c.Head.Pred, c.Head.BaseArity()}] = true
	}
	return sortedSigs(set)
}

// inputPreds returns the predicates that occur (possibly as ID-versions)
// in clause bodies but never in a head, excluding arithmetic built-ins:
// the program's input predicates (§3.1).
func inputPreds(p *Program, isBuiltin func(string) bool) []predSig {
	heads := map[string]bool{}
	for _, c := range p.Clauses {
		heads[c.Head.Pred] = true
	}
	set := map[predSig]bool{}
	for _, c := range p.Clauses {
		for _, l := range c.Body {
			if l.Atom == nil {
				continue
			}
			a := l.Atom
			if heads[a.Pred] || (isBuiltin != nil && isBuiltin(a.Pred)) {
				continue
			}
			set[predSig{a.Pred, a.BaseArity()}] = true
		}
	}
	return sortedSigs(set)
}

func sortedSigs(set map[predSig]bool) []predSig {
	out := make([]predSig, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

// hasID reports whether any clause uses an ID-atom.
func hasID(p *Program) bool {
	for _, c := range p.Clauses {
		for _, l := range c.Body {
			if l.Atom != nil && l.Atom.IsID {
				return true
			}
		}
	}
	return false
}

func sampleClause() *Clause {
	// p(X, 3) :- q[1](X, Y, T), not r(Y), choice((X), (Y)).
	return &Clause{
		Head: &Atom{Pred: "p", Args: []Term{V("X"), N(3)}},
		Body: []*Literal{
			{Atom: &Atom{Pred: "q", IsID: true, Group: []int{0}, Args: []Term{V("X"), V("Y"), V("T")}}},
			{Neg: true, Atom: &Atom{Pred: "r", Args: []Term{V("Y")}}},
			{Choice: &Choice{Domain: []Term{V("X")}, Range: []Term{V("Y")}}},
		},
	}
}

func TestBaseArity(t *testing.T) {
	ord := &Atom{Pred: "p", Args: []Term{V("X"), V("Y")}}
	if ord.BaseArity() != 2 {
		t.Fatalf("ordinary BaseArity = %d", ord.BaseArity())
	}
	id := &Atom{Pred: "p", IsID: true, Group: []int{0}, Args: []Term{V("X"), V("Y"), V("T")}}
	if id.BaseArity() != 2 {
		t.Fatalf("ID BaseArity = %d", id.BaseArity())
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := sampleClause()
	d := c.Clone()
	d.Head.Pred = "zzz"
	d.Body[0].Atom.Args[0] = V("W")
	d.Body[2].Choice.Domain[0] = V("Q")
	if c.Head.Pred != "p" || c.Body[0].Atom.Args[0].(Var).Name != "X" {
		t.Fatalf("Clone shares structure with original")
	}
	if c.Body[2].Choice.Domain[0].(Var).Name != "X" {
		t.Fatalf("Choice clone shares structure")
	}
}

func TestClauseVarsOrderAndDedup(t *testing.T) {
	c := sampleClause()
	vars := ClauseVars(c)
	want := []string{"X", "Y", "T"}
	if len(vars) != len(want) {
		t.Fatalf("vars = %v, want %v", vars, want)
	}
	for i, v := range vars {
		if v.Name != want[i] {
			t.Fatalf("vars[%d] = %s, want %s", i, v.Name, want[i])
		}
	}
}

func TestClauseVarsSkipsAnonymous(t *testing.T) {
	c := &Clause{
		Head: &Atom{Pred: "p", Args: []Term{V("X")}},
		Body: []*Literal{{Atom: &Atom{Pred: "q", Args: []Term{V("X"), V("_")}}}},
	}
	vars := ClauseVars(c)
	if len(vars) != 1 || vars[0].Name != "X" {
		t.Fatalf("vars = %v", vars)
	}
}

func TestFreshAnonCounter(t *testing.T) {
	c := &Clause{
		Head: &Atom{Pred: "p", Args: []Term{V("X")}},
		Body: []*Literal{{Atom: &Atom{Pred: "q", Args: []Term{V("_"), V("_")}}}},
	}
	n := 0
	d := FreshAnonCounter(c, &n)
	a := d.Body[0].Atom.Args[0].(Var).Name
	b := d.Body[0].Atom.Args[1].(Var).Name
	if a == b || a == "_" || b == "_" {
		t.Fatalf("anonymous variables not freshened: %s %s", a, b)
	}
}

func TestAtomStringForms(t *testing.T) {
	cases := map[string]string{
		(&Atom{Pred: "p", Args: []Term{S("a"), V("X")}}).String():                                        "p(a, X)",
		(&Atom{Pred: "emp", IsID: true, Group: []int{1}, Args: []Term{V("N"), V("D"), V("T")}}).String(): "emp[2](N, D, T)",
		(&Atom{Pred: "q", IsID: true, Group: []int{}, Args: []Term{V("X"), V("T")}}).String():            "q[](X, T)",
		(&Atom{Pred: "lt", Args: []Term{V("N"), N(2)}}).String():                                         "N < 2",
		(&Atom{Pred: "rain"}).String():                                                                   "rain()",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("Atom.String = %q, want %q", got, want)
		}
	}
}

func TestClauseString(t *testing.T) {
	c := sampleClause()
	want := "p(X, 3) :- q[1](X, Y, T), not r(Y), choice((X), (Y))."
	if got := c.String(); got != want {
		t.Fatalf("Clause.String = %q, want %q", got, want)
	}
	fact := &Clause{Head: &Atom{Pred: "emp", Args: []Term{S("joe"), S("toys")}}}
	if got := fact.String(); got != "emp(joe, toys)." {
		t.Fatalf("fact String = %q", got)
	}
}

func TestHasIDAndHasChoice(t *testing.T) {
	p := &Program{Clauses: []*Clause{sampleClause()}}
	if !hasID(p) || !p.HasChoice() {
		t.Fatalf("HasID/HasChoice false on sample")
	}
	plain := &Program{Clauses: []*Clause{{
		Head: &Atom{Pred: "p", Args: []Term{V("X")}},
		Body: []*Literal{{Atom: &Atom{Pred: "q", Args: []Term{V("X")}}}},
	}}}
	if hasID(plain) || plain.HasChoice() {
		t.Fatalf("HasID/HasChoice true on plain program")
	}
}

func TestConstructorsProduceRightSorts(t *testing.T) {
	if S("x").Val.Sort != value.U {
		t.Fatalf("S not sort u")
	}
	if N(1).Val.Sort != value.I {
		t.Fatalf("N not sort i")
	}
}

func TestPredSigString(t *testing.T) {
	if got := (predSig{"emp", 2}).String(); got != "emp/2" {
		t.Fatalf("predSig.String = %q", got)
	}
}

func TestProgramCloneIsDeep(t *testing.T) {
	p := &Program{Clauses: []*Clause{sampleClause()}}
	q := p.Clone()
	q.Clauses[0].Head.Pred = "zzz"
	if p.Clauses[0].Head.Pred != "p" {
		t.Fatalf("Program.Clone shares clauses")
	}
}

func TestHeadAndInputPreds(t *testing.T) {
	p := &Program{Clauses: []*Clause{
		{Head: &Atom{Pred: "out", Args: []Term{V("X")}},
			Body: []*Literal{
				{Atom: &Atom{Pred: "in", Args: []Term{V("X"), V("Y")}}},
				{Atom: &Atom{Pred: "lt", Args: []Term{V("Y"), N(3)}}},
			}},
		{Head: &Atom{Pred: "aux", Args: []Term{V("X")}},
			Body: []*Literal{{Atom: &Atom{Pred: "out", Args: []Term{V("X")}}}}},
	}}
	heads := headPreds(p)
	if len(heads) != 2 || heads[0].String() != "aux/1" || heads[1].String() != "out/1" {
		t.Fatalf("heads = %v", heads)
	}
	isBuiltin := func(n string) bool { return n == "lt" }
	ins := inputPreds(p, isBuiltin)
	if len(ins) != 1 || ins[0].Name != "in" || ins[0].Arity != 2 {
		t.Fatalf("inputs = %v", ins)
	}
}

func TestProgramString(t *testing.T) {
	p := &Program{Clauses: []*Clause{
		{Head: &Atom{Pred: "p", Args: []Term{S("a")}}},
		{Head: &Atom{Pred: "q", Args: []Term{V("X")}},
			Body: []*Literal{{Atom: &Atom{Pred: "p", Args: []Term{V("X")}}}}},
	}}
	want := "p(a).\nq(X) :- p(X).\n"
	if p.String() != want {
		t.Fatalf("Program.String = %q", p.String())
	}
}

func TestConstQuoting(t *testing.T) {
	cases := map[string]string{
		"plain":       "plain",
		"with space":  "'with space'",
		"it's":        "'it''s'",
		"":            "''",
		"Upper":       "'Upper'",
		"_underscore": "'_underscore'",
		"a_b9":        "a_b9",
		"né":          "né",
	}
	for name, want := range cases {
		if got := S(name).String(); got != want {
			t.Errorf("S(%q).String = %q, want %q", name, got, want)
		}
	}
	if N(42).String() != "42" {
		t.Fatalf("N(42) renders wrong")
	}
}
