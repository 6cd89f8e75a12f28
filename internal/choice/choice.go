// Package choice implements DATALOG^C — DATALOG with the choice operator
// of Krishnamurthy & Naqvi [KN88] as presented in §3.2.2 of the paper —
// and the Theorem-2 translation of DATALOG^C programs into stratified
// IDLOG programs.
//
// Two evaluation paths are provided:
//
//   - the direct KN88 semantics (Eval/Enumerate): build P_c by replacing
//     each choice operator with a fresh choice-predicate and adding its
//     choice-clause, compute the minimal model of P_c, assign each
//     choice-predicate a functional subset of its relation, and compute
//     the minimal model of the residual program;
//   - the Theorem-2 route (Translate): produce a pure IDLOG program that
//     is q-equivalent, selecting functional subsets with tid-0
//     ID-literals.
//
// Both paths require the syntactic conditions (C1) — at most one choice
// per clause — and (C2) — no choice clause related to the head of
// another choice clause — which BuildPc checks.
package choice

import (
	"fmt"

	"idlog/internal/arith"
	"idlog/internal/ast"
)

// Occurrence describes one choice operator occurrence in a program.
type Occurrence struct {
	// ClauseIndex is the index of the clause in the program.
	ClauseIndex int
	// LiteralIndex is the position of the choice literal in the body.
	LiteralIndex int
	// Pred is the generated choice-predicate name (extChoice_i).
	Pred string
	// Domain and Range are the choice operator's term lists.
	Domain, Range []ast.Term
	// DomainCols are the argument positions of the domain terms within
	// the choice-predicate (always the leading positions).
	DomainCols []int
}

// Vars returns Domain ++ Range (the choice-predicate's argument list).
func (o *Occurrence) Vars() []ast.Term {
	out := make([]ast.Term, 0, len(o.Domain)+len(o.Range))
	out = append(out, o.Domain...)
	out = append(out, o.Range...)
	return out
}

// ValidationError reports a violated DATALOG^C restriction.
type ValidationError struct {
	Cond string // "C1", "C2", or "scope"
	Msg  string
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("choice: condition %s violated: %s", e.Cond, e.Msg)
}

// occurrences collects and validates the choice occurrences.
func occurrences(prog *ast.Program) ([]*Occurrence, error) {
	var occs []*Occurrence
	taken := map[string]bool{}
	for _, c := range prog.Clauses {
		taken[c.Head.Pred] = true
		for _, l := range c.Body {
			if l.Atom != nil {
				taken[l.Atom.Pred] = true
			}
		}
	}
	fresh := func(i int) string {
		name := fmt.Sprintf("ext_choice_%d", i)
		for taken[name] {
			name = "x" + name
		}
		taken[name] = true
		return name
	}

	for ci, c := range prog.Clauses {
		var found *Occurrence
		for li, l := range c.Body {
			if !l.IsChoice() {
				continue
			}
			if found != nil {
				return nil, &ValidationError{Cond: "C1", Msg: fmt.Sprintf("clause %q contains more than one choice operator", c)}
			}
			// Scoping: choice variables must be bound by the rest of the
			// body (the choice-clause body must make them safe).
			bodyVars := map[string]bool{}
			for _, bl := range c.Body {
				if bl.Atom != nil && !bl.Neg {
					for _, t := range bl.Atom.Args {
						if v, ok := t.(ast.Var); ok {
							bodyVars[v.Name] = true
						}
					}
				}
			}
			for _, t := range append(append([]ast.Term{}, l.Choice.Domain...), l.Choice.Range...) {
				v, ok := t.(ast.Var)
				if !ok {
					return nil, &ValidationError{Cond: "scope", Msg: fmt.Sprintf("clause %q: choice arguments must be variables, got %s", c, t)}
				}
				if !bodyVars[v.Name] {
					return nil, &ValidationError{Cond: "scope", Msg: fmt.Sprintf("clause %q: choice variable %s does not occur in a positive body literal", c, v.Name)}
				}
			}
			occ := &Occurrence{
				ClauseIndex:  ci,
				LiteralIndex: li,
				Pred:         fresh(len(occs)),
				Domain:       l.Choice.Domain,
				Range:        l.Choice.Range,
			}
			for i := range occ.Domain {
				occ.DomainCols = append(occ.DomainCols, i)
			}
			occs = append(occs, occ)
			found = occ
		}
	}
	if err := checkC2(prog, occs); err != nil {
		return nil, err
	}
	return occs, nil
}

// relatedPreds returns the predicates whose clauses belong to P/q: the
// program portion related to q (§3.1). A clause is related to q if its
// head predicate appears in a clause defining q, or recursively in a
// related clause; this is reachability from q through clause bodies.
func relatedPreds(prog *ast.Program, q string) map[string]bool {
	bodyPreds := map[string][]string{}
	for _, c := range prog.Clauses {
		for _, l := range c.Body {
			if l.Atom != nil && !arith.IsBuiltin(l.Atom.Pred) {
				bodyPreds[c.Head.Pred] = append(bodyPreds[c.Head.Pred], l.Atom.Pred)
			}
		}
	}
	reach := map[string]bool{q: true}
	queue := []string{q}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, d := range bodyPreds[p] {
			if !reach[d] {
				reach[d] = true
				queue = append(queue, d)
			}
		}
	}
	return reach
}

// checkC2 enforces condition (C2): for any two distinct choice clauses
// with heads p and q, neither clause lies in the program portion related
// to the other's head.
func checkC2(prog *ast.Program, occs []*Occurrence) error {
	for i, a := range occs {
		for j, b := range occs {
			if i == j {
				continue
			}
			headA := prog.Clauses[a.ClauseIndex].Head.Pred
			headB := prog.Clauses[b.ClauseIndex].Head.Pred
			if a.ClauseIndex == b.ClauseIndex {
				continue // same clause handled by C1
			}
			if relatedPreds(prog, headB)[headA] {
				return &ValidationError{
					Cond: "C2",
					Msg: fmt.Sprintf("choice clause with head %s is related to choice clause head %s",
						headA, headB),
				}
			}
		}
	}
	return nil
}

// BuildPc constructs the program P_c of §3.2.2: each choice operator in
// clause r is replaced by a literal extChoice_i(X, Y), and the
// choice-clause extChoice_i(X, Y) :- body(r) (without the choice
// operator) is appended. The occurrences are returned alongside.
func BuildPc(prog *ast.Program) (*ast.Program, []*Occurrence, error) {
	occs, err := occurrences(prog)
	if err != nil {
		return nil, nil, err
	}
	out := prog.Clone()
	for _, occ := range occs {
		c := out.Clauses[occ.ClauseIndex]
		// Replace the choice literal with the choice-predicate literal.
		c.Body[occ.LiteralIndex] = &ast.Literal{Atom: &ast.Atom{Pred: occ.Pred, Args: occ.Vars()}}
		// Append the choice-clause with the original body minus choice.
		var body []*ast.Literal
		for li, l := range prog.Clauses[occ.ClauseIndex].Body {
			if li == occ.LiteralIndex {
				continue
			}
			body = append(body, l.Clone())
		}
		out.Clauses = append(out.Clauses, &ast.Clause{
			Head: &ast.Atom{Pred: occ.Pred, Args: occ.Vars()},
			Body: body,
		})
	}
	return out, occs, nil
}

// Translate implements the Theorem-2 construction: a DATALOG^C program
// satisfying (C1) and (C2) becomes a q-equivalent stratified IDLOG
// program of (at most) four strata:
//
//	(1) ext_choice_i(X, Y) :- body.          — the choice domain
//	(2) chosen_i(X, Y) :- ext_choice_i[s](X, Y, 0).
//	    — one tuple per X-group via the tid-0 ID-literal
//	(3) the original clause with choice((X),(Y)) replaced by
//	    chosen_i(X, Y), plus every untouched clause.
//
// Functional-subset semantics coincide because an ID-function on the
// grouping s = positions(X) assigns tid 0 to exactly one tuple per
// X-group.
func Translate(prog *ast.Program) (*ast.Program, error) {
	pc, occs, err := BuildPc(prog)
	if err != nil {
		return nil, err
	}
	if len(occs) == 0 {
		return pc, nil
	}
	out := pc.Clone()
	for k, occ := range occs {
		chosen := occ.Pred + "_sel"
		// Rewrite the replaced literal in the original clause to use the
		// selection predicate.
		c := out.Clauses[occ.ClauseIndex]
		c.Body[occ.LiteralIndex] = &ast.Literal{Atom: &ast.Atom{Pred: chosen, Args: occ.Vars()}}
		// chosen_i(X, Y) :- ext_choice_i[s](X, Y, 0).
		idArgs := append(append([]ast.Term{}, occ.Vars()...), ast.N(0))
		sel := &ast.Clause{
			Head: &ast.Atom{Pred: chosen, Args: occ.Vars()},
			Body: []*ast.Literal{{
				Atom: &ast.Atom{Pred: occ.Pred, IsID: true, Group: occ.DomainCols, Args: idArgs},
			}},
		}
		// Insert selection clauses after the choice clauses for
		// readability; order does not affect semantics.
		_ = k
		out.Clauses = append(out.Clauses, sel)
	}
	return out, nil
}
