package analysis

import (
	"idlog/internal/arith"
	"idlog/internal/ast"
)

// orderClause finds a safe evaluation order for the clause body and
// verifies range restriction. A literal is *eligible* when:
//
//   - it is a positive relational (ordinary or ID) literal — these are
//     always evaluable and bind their variables; or
//   - it is an interpreted literal whose current binding pattern is in
//     the predicate's admissible set (§2.2) — functional patterns bind
//     their output variables; or
//   - it is a negated literal all of whose variables are already bound.
//
// Among eligible literals the planner greedily prefers the one with the
// most bound argument positions (a simple sideways-information-passing
// heuristic that favours index probes), breaking ties by source order.
// Relational literals are preferred over interpreted/negated ones at
// equal score only via the tie-break; correctness does not depend on the
// heuristic, only on eligibility.
func (info *Info) orderClause(src *ast.Clause) (*OrderedClause, error) {
	bound := map[string]bool{}
	// Head constants contribute nothing; head variables must be bound by
	// the end.
	remaining := make([]*ast.Literal, len(src.Body))
	copy(remaining, src.Body)
	var ordered []*ast.Literal

	for len(remaining) > 0 {
		bestIdx := -1
		bestScore := -1
		for i, l := range remaining {
			ok, score := eligible(l, bound)
			if !ok {
				continue
			}
			if score > bestScore {
				bestScore = score
				bestIdx = i
			}
		}
		if bestIdx == -1 {
			return nil, errf(src, "unsafe clause: no safe evaluation order for remaining literals (check negation bindings and arithmetic binding patterns)")
		}
		l := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		ordered = append(ordered, l)
		bindLiteral(l, bound)
	}

	for _, t := range src.Head.Args {
		if v, ok := t.(ast.Var); ok && !bound[v.Name] {
			return nil, errf(src, "unsafe clause: head variable %s is not bound by the body", v.Name)
		}
	}

	oc := &OrderedClause{
		Clause: &ast.Clause{Head: src.Head, Body: ordered},
		Source: src,
	}
	head := info.componentOf[src.Head.Pred]
	for _, l := range ordered {
		if !l.Neg && !l.Atom.IsID && info.componentOf[l.Atom.Pred] == head {
			oc.Recursive = true
		}
	}
	return oc, nil
}

// eligible reports whether l can be evaluated next given the bound
// variables, along with a preference score (number of bound argument
// positions).
func eligible(l *ast.Literal, bound map[string]bool) (bool, int) {
	a := l.Atom
	score := 0
	allBound := true
	for _, t := range a.Args {
		switch t := t.(type) {
		case ast.Const:
			score++
		case ast.Var:
			if bound[t.Name] {
				score++
			} else {
				allBound = false
			}
		}
	}
	if arith.IsBuiltin(a.Pred) {
		b, _ := arith.Lookup(a.Pred)
		if l.Neg {
			// Negated interpreted literals need every argument bound so
			// the complement is decidable.
			return allBound, score
		}
		return b.Allowed(arith.Pattern(boundMask(a, bound))), score
	}
	if l.Neg {
		return allBound, score
	}
	return true, score
}

func boundMask(a *ast.Atom, bound map[string]bool) []bool {
	mask := make([]bool, len(a.Args))
	for i, t := range a.Args {
		switch t := t.(type) {
		case ast.Const:
			mask[i] = true
		case ast.Var:
			mask[i] = bound[t.Name]
		}
	}
	return mask
}

// bindLiteral records the variables bound by evaluating l. Positive
// literals (relational or interpreted) bind all their variables; negated
// literals bind nothing (they were fully bound already).
func bindLiteral(l *ast.Literal, bound map[string]bool) {
	if l.Neg {
		return
	}
	for _, t := range l.Atom.Args {
		if v, ok := t.(ast.Var); ok {
			bound[v.Name] = true
		}
	}
}
