// Package magic implements the magic-sets rewrite for goal-directed
// evaluation: given an analyzed program and a goal predicate whose
// single defining clause carries the query's constants, it adorns the
// reachable rules with binding patterns (the RBK88 vocabulary of
// internal/adorn), generates magic predicates that seed and propagate
// demand sideways through each rule body, and guards every adorned rule
// variant so the bottom-up evaluators materialize only the goal's
// derivation cone.
//
// The rewrite is deliberately partial. It refuses — returning an
// *InapplicableError so callers fall back to full evaluation — when the
// goal's cone contains ID-literals (the oracle assigns identifiers over
// the whole base relation, so restricting the base changes answers),
// negation over a derived predicate (the complement of a partially
// materialized relation is unsound), or when the goal binds no argument
// of any derived predicate (no demand to propagate). Negation over base
// relations and interpreted built-ins pass through unchanged: base
// relations are fully known regardless of demand.
package magic

import (
	"fmt"
	"sort"
	"strings"

	"idlog/internal/analysis"
	"idlog/internal/arith"
	"idlog/internal/ast"
)

// InapplicableError reports that the program/goal pair is outside the
// rewrite's sound fragment; callers should evaluate the original
// program instead.
type InapplicableError struct {
	// Reason is a one-line human-readable explanation, surfaced by
	// ExplainPlan and the REPL.
	Reason string
}

func (e *InapplicableError) Error() string {
	return "magic: rewrite inapplicable: " + e.Reason
}

func inapplicablef(format string, args ...any) error {
	return &InapplicableError{Reason: fmt.Sprintf(format, args...)}
}

// Rewritten is the output of Rewrite: the transformed program plus the
// bookkeeping ExplainPlan and the benchmarks render.
type Rewritten struct {
	// Program holds the goal clause, the guarded adorned rule variants,
	// and the magic rules (seeds included), and nothing else — clauses
	// outside the goal's cone are dropped.
	Program *ast.Program
	// Adornments lists the adorned predicate names generated
	// (e.g. "tc__bf"), sorted.
	Adornments []string
	// GoalAdornment summarizes the demand the goal clause injects, as
	// "pred__ad" per derived literal in its body, in sideways order.
	GoalAdornment []string
	// MagicRules counts magic rules emitted, seed facts included.
	MagicRules int
	// GuardedRules counts adorned rule variants (goal clause included).
	GuardedRules int
	// DroppedClauses counts source clauses outside the cone.
	DroppedClauses int
}

// Summary renders a one-line description for plans and logs.
func (r *Rewritten) Summary() string {
	return fmt.Sprintf("goal %s; %d adorned predicate(s), %d magic rule(s), %d guarded rule(s), %d source clause(s) dropped",
		strings.Join(r.GoalAdornment, ","), len(r.Adornments), r.MagicRules, r.GuardedRules, r.DroppedClauses)
}

// adornedName and magicName build the rewrite's predicate namespace.
// Collisions with source predicates are detected and refused rather
// than repaired: programs naming predicates "m__p__bf" are vanishingly
// rare, and falling back to full evaluation is always correct.
func adornedName(pred, ad string) string { return pred + "__" + ad }
func magicName(pred, ad string) string   { return "m__" + pred + "__" + ad }

type rewriter struct {
	info  *analysis.Info
	defs  map[string][]*ast.Clause
	out   []*ast.Clause
	seen  map[string]bool // adorned-name set, doubles as the worklist dedup
	queue []predAd
	names map[string]bool // every source predicate name, for collision checks
	// goalBound records whether the goal clause demands at least one
	// bound argument position of some derived predicate; without that
	// there is no demand to propagate and full evaluation is used.
	goalBound bool
	res       *Rewritten
}

type predAd struct{ pred, ad string }

// Rewrite applies the magic-sets transformation to info's program for
// the goal predicate ansPred (the wrapper predicate Program.Prepare
// synthesizes, carrying the query's constants in its single clause).
// It returns the rewritten program — equivalent to the original on
// ansPred for every database — or an *InapplicableError when the goal
// is outside the sound fragment.
func Rewrite(info *analysis.Info, ansPred string) (*Rewritten, error) {
	prog := info.Program
	rw := &rewriter{
		info:  info,
		defs:  map[string][]*ast.Clause{},
		seen:  map[string]bool{},
		names: map[string]bool{},
		res:   &Rewritten{},
	}
	for _, c := range prog.Clauses {
		rw.defs[c.Head.Pred] = append(rw.defs[c.Head.Pred], c)
		rw.names[c.Head.Pred] = true
		for _, l := range c.Body {
			if l.Atom != nil {
				rw.names[l.Atom.Pred] = true
			}
		}
	}
	goals := rw.defs[ansPred]
	if len(goals) != 1 {
		return nil, inapplicablef("goal predicate %s has %d defining clauses, want 1", ansPred, len(goals))
	}

	cone, err := rw.cone(ansPred)
	if err != nil {
		return nil, err
	}

	// The goal clause itself: unguarded (it IS the demand), head kept as
	// ansPred so callers read the same answer relation.
	if err := rw.clause(goals[0], "", false); err != nil {
		return nil, err
	}
	if !rw.goalBound {
		return nil, inapplicablef("goal binds no argument of any derived predicate")
	}

	for len(rw.queue) > 0 {
		pa := rw.queue[0]
		rw.queue = rw.queue[1:]
		for _, c := range rw.defs[pa.pred] {
			if err := rw.clause(c, pa.ad, true); err != nil {
				return nil, err
			}
		}
	}

	rw.res.Program = &ast.Program{Clauses: rw.out}
	for name := range rw.seen {
		rw.res.Adornments = append(rw.res.Adornments, name)
	}
	sort.Strings(rw.res.Adornments)
	rw.res.DroppedClauses = len(prog.Clauses) - len(cone)
	return rw.res, nil
}

// cone returns the clauses reachable from the goal through rule bodies
// and checks the sound-fragment conditions on every one of them.
func (rw *rewriter) cone(ansPred string) (map[*ast.Clause]bool, error) {
	reached := map[string]bool{ansPred: true}
	stack := []string{ansPred}
	clauses := map[*ast.Clause]bool{}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range rw.defs[p] {
			clauses[c] = true
			for _, l := range c.Body {
				if l.IsChoice() || l.Atom == nil {
					return nil, inapplicablef("choice literal in the goal's cone (clause %s)", c)
				}
				if l.Atom.IsID {
					return nil, inapplicablef("ID-literal %s in the goal's cone: the oracle assigns identifiers over the full base relation", l.Atom.Pred)
				}
				if l.Neg && rw.info.IDB[l.Atom.Pred] {
					return nil, inapplicablef("negation over derived predicate %s in the goal's cone", l.Atom.Pred)
				}
				if rw.info.IDB[l.Atom.Pred] && !reached[l.Atom.Pred] {
					reached[l.Atom.Pred] = true
					stack = append(stack, l.Atom.Pred)
				}
			}
		}
	}
	return clauses, nil
}

// clause rewrites one source clause under the head adornment ad. For
// the goal clause (guarded=false, ad="") no variables start bound and
// no guard is prepended; otherwise the magic guard binds the head's
// 'b'-position variables. The body is re-ordered by the planner's
// sideways-information-passing heuristic (most bound argument
// positions first, source order on ties), each derived literal is
// renamed to its adorned variant, and a magic rule carrying the bound
// prefix is emitted per derived literal.
func (rw *rewriter) clause(c *ast.Clause, ad string, guarded bool) error {
	bound := map[string]bool{}
	head := c.Head.Clone()
	var body []*ast.Literal
	if guarded {
		if len(ad) != len(c.Head.Args) {
			return inapplicablef("adornment %q does not match arity of %s", ad, c.Head.Pred)
		}
		var margs []ast.Term
		for i, t := range c.Head.Args {
			if ad[i] != 'b' {
				continue
			}
			margs = append(margs, t)
			if v, ok := t.(ast.Var); ok && !v.Anonymous() {
				bound[v.Name] = true
			}
		}
		head.Pred = adornedName(c.Head.Pred, ad)
		body = append(body, &ast.Literal{Atom: &ast.Atom{Pred: magicName(c.Head.Pred, ad), Args: margs}})
	}

	remaining := make([]*ast.Literal, len(c.Body))
	copy(remaining, c.Body)
	for len(remaining) > 0 {
		best, bestScore := -1, -1
		for i, l := range remaining {
			if !analysis.Eligible(l, bound) {
				continue
			}
			if score := analysis.BoundCount(l, bound); score > bestScore {
				best, bestScore = i, score
			}
		}
		if best == -1 {
			// The source order was safe starting from no bound head
			// variables, and binding more never removes eligibility, so
			// this is unreachable; refuse defensively rather than emit an
			// unsafe rule.
			return inapplicablef("no safe sideways order for clause %s under adornment %q", c, ad)
		}
		l := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		out := &ast.Literal{Neg: l.Neg, Atom: l.Atom.Clone()}
		if !l.Neg && rw.info.IDB[l.Atom.Pred] && !arith.IsBuiltin(l.Atom.Pred) {
			lad := adornment(l.Atom, bound)
			if err := rw.request(l.Atom.Pred, lad); err != nil {
				return err
			}
			// Magic rule: demand for this literal's bound positions,
			// derived from the guard plus the body prefix evaluated so
			// far. An empty body (first literal, constants only) is a
			// seed fact.
			magicHead := &ast.Atom{Pred: magicName(l.Atom.Pred, lad)}
			for i, t := range l.Atom.Args {
				if lad[i] == 'b' {
					magicHead.Args = append(magicHead.Args, t)
				}
			}
			rw.out = append(rw.out, &ast.Clause{Head: magicHead, Body: cloneLits(body)})
			rw.res.MagicRules++
			out.Atom.Pred = adornedName(l.Atom.Pred, lad)
			if !guarded {
				rw.res.GoalAdornment = append(rw.res.GoalAdornment, adornedName(l.Atom.Pred, lad))
				if strings.ContainsRune(lad, 'b') {
					rw.goalBound = true
				}
			}
		}
		body = append(body, out)
		analysis.Bind(l, bound)
	}
	rw.out = append(rw.out, &ast.Clause{Head: head, Body: body})
	rw.res.GuardedRules++
	return nil
}

// request enqueues (pred, ad) for rewriting if unseen, refusing on a
// namespace collision with a source predicate.
func (rw *rewriter) request(pred, ad string) error {
	an, mn := adornedName(pred, ad), magicName(pred, ad)
	if rw.names[an] || rw.names[mn] {
		return inapplicablef("generated predicate name %s or %s collides with a source predicate", an, mn)
	}
	if rw.seen[an] {
		return nil
	}
	rw.seen[an] = true
	rw.queue = append(rw.queue, predAd{pred, ad})
	return nil
}

// adornment computes the binding pattern of an atom under the current
// bound-variable set: 'b' for constants and bound variables, 'f'
// otherwise.
func adornment(a *ast.Atom, bound map[string]bool) string {
	b := make([]byte, len(a.Args))
	for i, t := range a.Args {
		b[i] = 'f'
		switch t := t.(type) {
		case ast.Const:
			b[i] = 'b'
		case ast.Var:
			if !t.Anonymous() && bound[t.Name] {
				b[i] = 'b'
			}
		}
	}
	return string(b)
}

func cloneLits(ls []*ast.Literal) []*ast.Literal {
	out := make([]*ast.Literal, len(ls))
	for i, l := range ls {
		out[i] = &ast.Literal{Neg: l.Neg, Atom: l.Atom.Clone()}
	}
	return out
}
