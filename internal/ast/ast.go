// Package ast defines the abstract syntax of IDLOG programs (§2.2 of the
// paper): two-sorted terms, ordinary atoms, ID-atoms p[s], arithmetic
// atoms, DATALOG^C choice literals, clauses and programs.
package ast

import (
	"fmt"
	"unicode"

	"idlog/internal/value"
)

// Term is a variable or a constant of either sort.
type Term interface {
	isTerm()
	fmt.Stringer
}

// Var is a logical variable. Variables with the name "_" are anonymous:
// every occurrence is distinct.
type Var struct {
	Name string
}

func (Var) isTerm() {}

// String implements fmt.Stringer.
func (v Var) String() string { return v.Name }

// Anonymous reports whether v is the anonymous variable.
func (v Var) Anonymous() bool { return v.Name == "_" }

// Const is a constant term of either sort.
type Const struct {
	Val value.Value
}

func (Const) isTerm() {}

// String renders the constant in concrete syntax: sort-i constants as
// digits, sort-u constants bare when they lex as plain identifiers and
// single-quoted (with ” escaping) otherwise, so that printed programs
// always re-parse.
func (c Const) String() string {
	if c.Val.IsInt() {
		return c.Val.String()
	}
	name := c.Val.String()
	if isPlainIdent(name) {
		return name
	}
	quoted := "'"
	for _, r := range name {
		if r == '\'' {
			quoted += "''"
			continue
		}
		quoted += string(r)
	}
	return quoted + "'"
}

// isPlainIdent reports whether name lexes as a bare lower-case
// identifier (mirrors the lexer's rules).
func isPlainIdent(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		if i == 0 {
			if !unicode.IsLower(r) {
				return false
			}
			continue
		}
		if r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

// S returns the sort-u constant term for name.
func S(name string) Const { return Const{Val: value.Str(name)} }

// N returns the sort-i constant term for n.
func N(n int64) Const { return Const{Val: value.Int(n)} }

// V returns the variable term named name.
func V(name string) Var { return Var{Name: name} }

// Atom is a predicate applied to terms. If IsID is true the atom is the
// ID-version of Pred grouped by the (0-based) argument positions in Group;
// its last argument is the tuple-identifier and its arity is one more than
// Pred's. Group positions refer to the base predicate's arguments.
type Atom struct {
	Pred  string
	IsID  bool
	Group []int
	Args  []Term
}

// BaseArity returns the arity of the underlying ordinary predicate:
// len(Args) for ordinary atoms and len(Args)-1 for ID-atoms.
func (a *Atom) BaseArity() int {
	if a.IsID {
		return len(a.Args) - 1
	}
	return len(a.Args)
}

// Clone returns a deep copy of the atom (terms are immutable and shared).
func (a *Atom) Clone() *Atom {
	c := &Atom{Pred: a.Pred, IsID: a.IsID}
	c.Group = append([]int(nil), a.Group...)
	c.Args = append([]Term(nil), a.Args...)
	return c
}

// Choice is the DATALOG^C choice operator choice((X...),(Y...)) (§3.2.2):
// within the clause it occurs in, for each binding of the domain terms
// exactly one binding of the range terms is chosen.
type Choice struct {
	Domain []Term
	Range  []Term
}

// Clone returns a deep copy.
func (c *Choice) Clone() *Choice {
	return &Choice{
		Domain: append([]Term(nil), c.Domain...),
		Range:  append([]Term(nil), c.Range...),
	}
}

// Literal is a body element: a possibly negated atom, or a choice literal.
// Exactly one of Atom and Choice is non-nil.
type Literal struct {
	Neg    bool
	Atom   *Atom
	Choice *Choice
}

// IsChoice reports whether the literal is a choice operator occurrence.
func (l *Literal) IsChoice() bool { return l.Choice != nil }

// Clone returns a deep copy.
func (l *Literal) Clone() *Literal {
	c := &Literal{Neg: l.Neg}
	if l.Atom != nil {
		c.Atom = l.Atom.Clone()
	}
	if l.Choice != nil {
		c.Choice = l.Choice.Clone()
	}
	return c
}

// Clause is an IDLOG clause Head :- Body. A clause with an empty body and
// a ground head is a fact. Heads are always ordinary (non-ID) atoms
// containing no succ or equality, which the parser and analyzer enforce.
type Clause struct {
	Head *Atom
	Body []*Literal
}

// IsFact reports whether the clause has an empty body.
func (c *Clause) IsFact() bool { return len(c.Body) == 0 }

// Clone returns a deep copy.
func (c *Clause) Clone() *Clause {
	n := &Clause{Head: c.Head.Clone()}
	for _, l := range c.Body {
		n.Body = append(n.Body, l.Clone())
	}
	return n
}

// Program is a finite set of clauses, in source order.
type Program struct {
	Clauses []*Clause
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	n := &Program{Clauses: make([]*Clause, len(p.Clauses))}
	for i, c := range p.Clauses {
		n.Clauses[i] = c.Clone()
	}
	return n
}

// ClauseVars returns the distinct named variables of the clause in order
// of first occurrence (head first, then body).
func ClauseVars(c *Clause) []Var {
	seen := map[string]bool{}
	var out []Var
	add := func(terms []Term) {
		for _, t := range terms {
			if v, ok := t.(Var); ok && !v.Anonymous() && !seen[v.Name] {
				seen[v.Name] = true
				out = append(out, v)
			}
		}
	}
	add(c.Head.Args)
	for _, l := range c.Body {
		if l.Atom != nil {
			add(l.Atom.Args)
		}
		if l.Choice != nil {
			add(l.Choice.Domain)
			add(l.Choice.Range)
		}
	}
	return out
}

// HasChoice reports whether any clause of the program contains a choice
// literal (i.e. the program is DATALOG^C rather than pure IDLOG).
func (p *Program) HasChoice() bool {
	for _, c := range p.Clauses {
		for _, l := range c.Body {
			if l.IsChoice() {
				return true
			}
		}
	}
	return false
}
