// Package adorn implements §4 of the paper: optimization of DATALOG
// programs through existential arguments.
//
// It provides the adornment algorithm of Ramakrishnan, Beeri &
// Krishnamurthy [RBK88] — the sufficient test for ∀-existential argument
// positions ("a variable that appears in a body literal and nowhere else
// in the clause, except possibly in an existential argument of the
// head") — and the two rewrites of the paper's optimization strategy:
//
//	step 1–2  PushProjections: eliminate the existential arguments of
//	          derived (IDB) predicates, pushing projections (Example 6);
//	step 3    RewriteIDLiterals: replace each input-predicate literal
//	          whose existential positions are X1..Xn by the ID-literal
//	          p[s](..., 0) with s the remaining positions (Example 8).
//
// By Theorem 4, every position the adornment algorithm identifies is
// also ∃-existential, so the ID-literal rewrite preserves the query
// while letting the evaluator consider one tuple per group. (Detecting
// all ∃-existential arguments is undecidable, Theorem 3; the tests
// include Example 7's witness separating the two notions.)
package adorn

import (
	"fmt"

	"idlog/internal/arith"
	"idlog/internal/ast"
)

// posKey identifies a predicate argument position.
type posKey struct {
	pred string
	pos  int
}

// Result reports the adornment analysis for one output predicate.
type Result struct {
	// Output is the predicate the analysis is relative to.
	Output string
	// Related is the set of predicates of P/q (reachable from Output
	// through clause bodies, including Output itself).
	Related map[string]bool
	// Existential maps each predicate in P/q to its per-position
	// ∀-existential flags (nil for predicates with no identified
	// positions). The output predicate itself is never marked.
	Existential map[string][]bool
	// arity records predicate arities within P/q.
	arity map[string]int
	// idb marks predicates defined by clauses.
	idb map[string]bool
}

// Analyze runs the adornment algorithm on prog w.r.t. the output
// predicate q. The program must be plain DATALOG (no choice literals;
// ID-literals are permitted and treated as opaque relational literals
// whose positions are never existential).
func Analyze(prog *ast.Program, q string) (*Result, error) {
	res := &Result{
		Output:      q,
		Related:     map[string]bool{},
		Existential: map[string][]bool{},
		arity:       map[string]int{},
		idb:         map[string]bool{},
	}
	defined := map[string]bool{}
	for _, c := range prog.Clauses {
		defined[c.Head.Pred] = true
	}
	if !defined[q] {
		return nil, fmt.Errorf("adorn: output predicate %s is not defined by the program", q)
	}
	// P/q: predicates reachable from q through bodies.
	res.Related[q] = true
	queue := []string{q}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, c := range prog.Clauses {
			if c.Head.Pred != p {
				continue
			}
			res.arity[p] = len(c.Head.Args)
			res.idb[p] = true
			for _, l := range c.Body {
				if l.IsChoice() {
					return nil, fmt.Errorf("adorn: choice literal in %q; translate first", c)
				}
				a := l.Atom
				if arith.IsBuiltin(a.Pred) {
					continue
				}
				if _, ok := res.arity[a.Pred]; !ok {
					res.arity[a.Pred] = a.BaseArity()
				}
				if !res.Related[a.Pred] {
					res.Related[a.Pred] = true
					if defined[a.Pred] {
						queue = append(queue, a.Pred)
					}
				}
			}
		}
	}
	for p := range res.Related {
		if defined[p] {
			res.idb[p] = true
		}
	}

	// Greatest fixpoint: start with every position of every related
	// predicate (except the output) marked, then strike positions whose
	// body occurrences are not existentially adorned.
	exist := map[posKey]bool{}
	for p := range res.Related {
		if p == q {
			continue
		}
		for i := 0; i < res.arity[p]; i++ {
			exist[posKey{p, i}] = true
		}
	}
	clauses := relatedClauses(prog, res.Related)
	for changed := true; changed; {
		changed = false
		for _, c := range clauses {
			for _, l := range c.Body {
				a := l.Atom
				if arith.IsBuiltin(a.Pred) || a.IsID {
					continue
				}
				for pos := range a.Args {
					k := posKey{a.Pred, pos}
					if !exist[k] {
						continue
					}
					if !occurrenceAdorned(c, l, pos, exist) {
						delete(exist, k)
						changed = true
					}
				}
			}
		}
		// Positions of ID-literal base predicates are never existential:
		// the tid column couples every position.
		for _, c := range clauses {
			for _, l := range c.Body {
				a := l.Atom
				if a != nil && a.IsID {
					for pos := 0; pos < a.BaseArity(); pos++ {
						k := posKey{a.Pred, pos}
						if exist[k] {
							delete(exist, k)
							changed = true
						}
					}
				}
			}
		}
	}
	for k := range exist {
		flags := res.Existential[k.pred]
		if flags == nil {
			flags = make([]bool, res.arity[k.pred])
			res.Existential[k.pred] = flags
		}
		flags[k.pos] = true
	}
	return res, nil
}

// occurrenceAdorned reports whether the term at position pos of body
// literal l in clause c satisfies the RBK88 condition: it is a variable
// whose every other occurrence in the clause is at a head position
// currently marked existential.
func occurrenceAdorned(c *ast.Clause, l *ast.Literal, pos int, exist map[posKey]bool) bool {
	v, ok := l.Atom.Args[pos].(ast.Var)
	if !ok {
		return false
	}
	// Other occurrences in the head.
	for hp, t := range c.Head.Args {
		if hv, ok := t.(ast.Var); ok && hv.Name == v.Name {
			if !exist[posKey{c.Head.Pred, hp}] {
				return false
			}
		}
	}
	// Other occurrences in the body.
	for _, bl := range c.Body {
		if bl.Atom == nil {
			continue
		}
		for bp, t := range bl.Atom.Args {
			if bl == l && bp == pos {
				continue
			}
			if bv, ok := t.(ast.Var); ok && bv.Name == v.Name {
				return false
			}
		}
	}
	return true
}

func relatedClauses(prog *ast.Program, related map[string]bool) []*ast.Clause {
	var out []*ast.Clause
	for _, c := range prog.Clauses {
		if related[c.Head.Pred] {
			out = append(out, c)
		}
	}
	return out
}

// PushProjections performs steps 1–2 of the optimization strategy: the
// existential argument positions of every derived predicate in P/q are
// eliminated, pushing projections through the program (Example 6). The
// output predicate and input predicates are untouched. Unrelated clauses
// are preserved verbatim.
func PushProjections(prog *ast.Program, res *Result) *ast.Program {
	drop := map[string][]bool{}
	for p, flags := range res.Existential {
		if res.idb[p] && p != res.Output {
			drop[p] = flags
		}
	}
	out := &ast.Program{}
	for _, c := range prog.Clauses {
		if !res.Related[c.Head.Pred] {
			out.Clauses = append(out.Clauses, c.Clone())
			continue
		}
		nc := c.Clone()
		nc.Head = projectAtom(nc.Head, drop[nc.Head.Pred])
		for i, l := range nc.Body {
			a := l.Atom
			if a == nil || a.IsID || arith.IsBuiltin(a.Pred) {
				continue
			}
			if flags, ok := drop[a.Pred]; ok {
				nc.Body[i] = &ast.Literal{Neg: l.Neg, Atom: projectAtom(a, flags)}
			}
		}
		out.Clauses = append(out.Clauses, nc)
	}
	return out
}

func projectAtom(a *ast.Atom, dropFlags []bool) *ast.Atom {
	if dropFlags == nil {
		return a
	}
	n := &ast.Atom{Pred: a.Pred}
	for i, t := range a.Args {
		if i < len(dropFlags) && dropFlags[i] {
			continue
		}
		n.Args = append(n.Args, t)
	}
	return n
}

// RewriteIDLiterals performs step 3: every positive literal over an
// *input* predicate that has occurrence-existential positions X1..Xn is
// replaced by the ID-literal p[s](..., 0), where s holds the remaining
// positions. Only clauses in P/q are rewritten. The adornment result
// must come from the same program.
func RewriteIDLiterals(prog *ast.Program, res *Result) *ast.Program {
	out := &ast.Program{}
	for _, c := range prog.Clauses {
		if !res.Related[c.Head.Pred] {
			out.Clauses = append(out.Clauses, c.Clone())
			continue
		}
		nc := c.Clone()
		for i, l := range nc.Body {
			a := l.Atom
			if a == nil || a.IsID || l.Neg || arith.IsBuiltin(a.Pred) || res.idb[a.Pred] {
				continue
			}
			// Occurrence-existential positions at the fixpoint.
			exist := map[posKey]bool{}
			for p, flags := range res.Existential {
				for pos, f := range flags {
					if f {
						exist[posKey{p, pos}] = true
					}
				}
			}
			var group []int
			anyExistential := false
			for pos := range a.Args {
				if occurrenceAdorned(c, c.Body[i], pos, exist) {
					anyExistential = true
				} else {
					group = append(group, pos)
				}
			}
			if !anyExistential {
				continue
			}
			idArgs := append(append([]ast.Term{}, a.Args...), ast.N(0))
			if group == nil {
				group = []int{}
			}
			nc.Body[i] = &ast.Literal{Atom: &ast.Atom{Pred: a.Pred, IsID: true, Group: group, Args: idArgs}}
		}
		out.Clauses = append(out.Clauses, nc)
	}
	return out
}

// Optimize chains Analyze, PushProjections, a re-analysis, and
// RewriteIDLiterals: the full strategy of §4 (steps 1–3). It returns the
// optimized program; the input program is not modified.
func Optimize(prog *ast.Program, q string) (*ast.Program, error) {
	res, err := Analyze(prog, q)
	if err != nil {
		return nil, err
	}
	pushed := PushProjections(prog, res)
	res2, err := Analyze(pushed, q)
	if err != nil {
		return nil, err
	}
	return RewriteIDLiterals(pushed, res2), nil
}
