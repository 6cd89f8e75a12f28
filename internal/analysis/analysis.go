// Package analysis performs the static checks and planning that precede
// evaluation of an IDLOG program:
//
//   - predicate signature consistency (one arity per predicate name);
//   - classification into input (EDB) and output (IDB) predicates (§3.1);
//   - safety: every clause must admit a body ordering in which head
//     variables become bound, negated literals are fully bound, and each
//     arithmetic literal is invoked with an admissible binding pattern
//     (the paper's sufficient safety condition, §2.2);
//   - stratification: negation and ID-literals over IDB predicates are
//     non-monotonic dependencies and must not occur inside a recursive
//     component (the ID-relation of p is only defined once p is fully
//     computed; see DESIGN.md §2).
//
// The result is an evaluation plan: strata in dependency order, each with
// its reordered clauses and the ID-relations it must materialize.
package analysis

import (
	"fmt"
	"sort"

	"idlog/internal/arith"
	"idlog/internal/ast"
)

// Error is an analysis error, annotated with the clause it concerns.
type Error struct {
	Clause *ast.Clause // nil for program-level errors
	Msg    string
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Clause == nil {
		return "analysis: " + e.Msg
	}
	return fmt.Sprintf("analysis: clause %q: %s", e.Clause.String(), e.Msg)
}

func errf(c *ast.Clause, format string, args ...any) *Error {
	return &Error{Clause: c, Msg: fmt.Sprintf(format, args...)}
}

// IDNeed identifies one ID-relation a stratum must materialize: the base
// predicate and the (canonicalized, 0-based) grouping columns. Bound is
// the tid-pruning bound of the paper's footnote 6: when positive, every
// literal over this ID-relation provably constrains the tid below Bound
// (e.g. "..., T), T < 2" or a constant tid), so only tuples with
// tid < Bound need to be materialized. Zero means unbounded (full
// materialization). Bound does not participate in Key: all uses of one
// ID-relation share a single materialization.
type IDNeed struct {
	Pred  string
	Group []int
	Bound int
}

// Key returns a canonical string for deduplication.
func (n IDNeed) Key() string {
	s := n.Pred + "["
	for i, g := range n.Group {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", g)
	}
	return s + "]"
}

// OrderedClause is a clause with its body reordered into a safe
// evaluation order.
type OrderedClause struct {
	// Clause has the body in evaluation order.
	Clause *ast.Clause
	// Source is the clause as written (for diagnostics).
	Source *ast.Clause
	// Recursive reports whether some positive ordinary body literal
	// references a predicate in the same component as the head.
	Recursive bool
}

// Stratum groups the IDB predicates evaluated together, in dependency
// order.
type Stratum struct {
	// Preds are the predicates defined in this stratum, sorted.
	Preds []string
	// Clauses are every clause whose head predicate is in Preds.
	Clauses []*OrderedClause
	// IDNeeds lists the ID-relations that clause bodies of this stratum
	// reference, deduplicated and sorted by Key.
	IDNeeds []IDNeed
	// Components refines the stratum into the strongly connected
	// components of its dependency graph, in dependency order: every
	// component follows the components it reads. Evaluating a stratum
	// component by component computes the same model (each component's
	// inputs are complete when it starts), so the engine runs and plans
	// one component at a time; everything keyed on strata is unaffected.
	Components []*Component
}

// Component is one strongly connected component of a stratum.
type Component struct {
	// Preds are the predicates of the component, sorted.
	Preds []string
	// Clauses are the stratum clauses whose head predicate is in Preds,
	// in program order.
	Clauses []*OrderedClause
	// Recursive reports whether any clause of the component is
	// recursive. Non-recursive
	// components reach fixpoint in a single seed round, so evaluators
	// (sequential and parallel alike) skip the delta-round scheduling —
	// no delta sinks, no round loop — for them.
	Recursive bool
}

// Info is the analysis result.
type Info struct {
	// Program is the analyzed program (with anonymous variables
	// freshened and ID groups canonicalized; clause bodies unmodified
	// otherwise — the ordered bodies live in Strata).
	Program *ast.Program
	// Arity maps every predicate name to its base arity.
	Arity map[string]int
	// EDB is the set of input predicate names.
	EDB map[string]bool
	// IDB is the set of predicates appearing in clause heads.
	IDB map[string]bool
	// Strata is the evaluation plan in dependency order.
	Strata []*Stratum
	// StratumOf maps each IDB predicate to its stratum index.
	StratumOf map[string]int
	// componentOf maps each IDB predicate to its component.
	componentOf map[string]*Component
}

// Analyze checks prog and builds its evaluation plan. Programs containing
// choice literals are rejected here: translate them first with the choice
// package (the engine evaluates pure IDLOG).
func Analyze(prog *ast.Program) (*Info, error) {
	p := normalize(prog)
	info := &Info{
		Program:     p,
		Arity:       map[string]int{},
		EDB:         map[string]bool{},
		IDB:         map[string]bool{},
		StratumOf:   map[string]int{},
		componentOf: map[string]*Component{},
	}
	if err := info.collectSignatures(); err != nil {
		return nil, err
	}
	if err := info.stratify(); err != nil {
		return nil, err
	}
	if err := info.planClauses(); err != nil {
		return nil, err
	}
	return info, nil
}

// normalize clones the program, freshens anonymous variables and
// canonicalizes ID grouping column lists (sorted, deduplicated).
func normalize(prog *ast.Program) *ast.Program {
	out := &ast.Program{}
	counter := 0
	for _, c := range prog.Clauses {
		nc := ast.FreshAnonCounter(c, &counter)
		for _, l := range nc.Body {
			if l.Atom != nil && l.Atom.IsID {
				l.Atom.Group = canonGroup(l.Atom.Group)
			}
		}
		out.Clauses = append(out.Clauses, nc)
	}
	return out
}

func canonGroup(g []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range g {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	if out == nil {
		out = []int{}
	}
	return out
}

func (info *Info) collectSignatures() error {
	checkArity := func(c *ast.Clause, pred string, arity int) error {
		if prev, ok := info.Arity[pred]; ok && prev != arity {
			return errf(c, "predicate %s used with arities %d and %d", pred, prev, arity)
		}
		info.Arity[pred] = arity
		return nil
	}
	for _, c := range info.Program.Clauses {
		if arith.IsBuiltin(c.Head.Pred) {
			return errf(c, "clause head may not be the interpreted predicate %s", c.Head.Pred)
		}
		if c.Head.IsID {
			return errf(c, "clause head may not be an ID-atom")
		}
		if err := checkArity(c, c.Head.Pred, len(c.Head.Args)); err != nil {
			return err
		}
		info.IDB[c.Head.Pred] = true
		for _, l := range c.Body {
			if l.IsChoice() {
				return errf(c, "choice literal in pure IDLOG program; translate with the choice package first")
			}
			a := l.Atom
			if arith.IsBuiltin(a.Pred) {
				if a.IsID {
					return errf(c, "interpreted predicate %s has no ID-version", a.Pred)
				}
				b, _ := arith.Lookup(a.Pred)
				if len(a.Args) != b.Arity {
					return errf(c, "interpreted predicate %s expects %d arguments, got %d", a.Pred, b.Arity, len(a.Args))
				}
				continue
			}
			if err := checkArity(c, a.Pred, a.BaseArity()); err != nil {
				return err
			}
			if a.IsID {
				if len(a.Args) == 0 {
					return errf(c, "ID-atom %s[..] needs at least the tuple-identifier argument", a.Pred)
				}
				for _, g := range a.Group {
					if g < 0 || g >= a.BaseArity() {
						return errf(c, "grouping position %d out of range for %s/%d", g+1, a.Pred, a.BaseArity())
					}
				}
			}
		}
	}
	// EDB = body predicates never defined by a clause head.
	for _, c := range info.Program.Clauses {
		for _, l := range c.Body {
			a := l.Atom
			if a == nil || arith.IsBuiltin(a.Pred) {
				continue
			}
			if !info.IDB[a.Pred] {
				info.EDB[a.Pred] = true
			}
		}
	}
	return nil
}

// depEdge is a dependency of head predicate To on body predicate From.
type depEdge struct {
	From, To string
	// NonMono marks negated literals and ID-literals: To's stratum must
	// strictly exceed From's.
	NonMono bool
}

func (info *Info) dependencyEdges() []depEdge {
	var edges []depEdge
	for _, c := range info.Program.Clauses {
		for _, l := range c.Body {
			a := l.Atom
			if a == nil || arith.IsBuiltin(a.Pred) {
				continue
			}
			if !info.IDB[a.Pred] {
				continue // EDB facts are fixed; no constraint
			}
			edges = append(edges, depEdge{
				From:    a.Pred,
				To:      c.Head.Pred,
				NonMono: l.Neg || a.IsID,
			})
		}
	}
	return edges
}

func (info *Info) stratify() error {
	preds := make([]string, 0, len(info.IDB))
	for p := range info.IDB {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	edges := info.dependencyEdges()

	comp := sccs(preds, edges)
	compOf := map[string]int{}
	for i, c := range comp {
		for _, p := range c {
			compOf[p] = i
		}
	}
	// Reject non-monotonic edges inside a component.
	for _, e := range edges {
		if e.NonMono && compOf[e.From] == compOf[e.To] {
			kind := "negation"
			if len(comp[compOf[e.From]]) >= 1 {
				// Distinguish the ID case in the message when possible.
				kind = "negation or ID-literal"
			}
			return &Error{Msg: fmt.Sprintf("program is not stratified: %s cycle through %s and %s", kind, e.From, e.To)}
		}
	}
	// Longest-path stratum numbers over the component DAG.
	strata := make([]int, len(comp))
	changed := true
	for iter := 0; changed; iter++ {
		if iter > len(comp)+1 {
			return &Error{Msg: "internal: stratification did not converge"}
		}
		changed = false
		for _, e := range edges {
			from, to := compOf[e.From], compOf[e.To]
			need := strata[from]
			if e.NonMono {
				need++
			}
			if strata[to] < need {
				strata[to] = need
				changed = true
			}
		}
	}
	maxStratum := 0
	for _, s := range strata {
		if s > maxStratum {
			maxStratum = s
		}
	}
	info.Strata = make([]*Stratum, maxStratum+1)
	for i := range info.Strata {
		info.Strata[i] = &Stratum{}
	}
	for i, c := range comp {
		s := strata[i]
		info.Strata[s].Preds = append(info.Strata[s].Preds, c...)
		for _, p := range c {
			info.StratumOf[p] = s
		}
	}
	// sccs lists every component after the components that read it, so
	// walking it backwards visits each stratum's components in
	// dependency order.
	for i := len(comp) - 1; i >= 0; i-- {
		sort.Strings(comp[i])
		c := &Component{Preds: comp[i]}
		s := info.Strata[strata[i]]
		s.Components = append(s.Components, c)
		for _, p := range comp[i] {
			info.componentOf[p] = c
		}
	}
	// Drop empty strata (possible when numbering leaves gaps).
	var packed []*Stratum
	for _, s := range info.Strata {
		if len(s.Preds) > 0 {
			sort.Strings(s.Preds)
			packed = append(packed, s)
		}
	}
	info.Strata = packed
	for i, s := range info.Strata {
		for _, p := range s.Preds {
			info.StratumOf[p] = i
		}
	}
	return nil
}

func (info *Info) planClauses() error {
	for _, c := range info.Program.Clauses {
		oc, err := info.orderClause(c)
		if err != nil {
			return err
		}
		s := info.Strata[info.StratumOf[c.Head.Pred]]
		s.Clauses = append(s.Clauses, oc)
		comp := info.componentOf[c.Head.Pred]
		comp.Clauses = append(comp.Clauses, oc)
		if oc.Recursive {
			comp.Recursive = true
		}
	}
	// Compute the global tid-pruning bound per ID-relation (footnote 6):
	// the bound must hold for EVERY occurrence across the whole program,
	// since one materialization serves all strata.
	bounds := map[string]int{}
	for _, c := range info.Program.Clauses {
		for _, l := range c.Body {
			a := l.Atom
			if a == nil || !a.IsID {
				continue
			}
			key := IDNeed{Pred: a.Pred, Group: a.Group}.Key()
			b := tidBound(c, a)
			prev, seen := bounds[key]
			switch {
			case !seen:
				bounds[key] = b
			case prev == 0 || b == 0:
				bounds[key] = 0
			case b > prev:
				bounds[key] = b
			}
		}
	}
	// Collect ID-needs per stratum and check availability: an ID-literal
	// over predicate p may only occur in a stratum strictly above p's
	// (or over an EDB predicate, available from stratum 0 on).
	for si, s := range info.Strata {
		needs := map[string]IDNeed{}
		for _, oc := range s.Clauses {
			for _, l := range oc.Clause.Body {
				a := l.Atom
				if a == nil || !a.IsID {
					continue
				}
				if info.IDB[a.Pred] && info.StratumOf[a.Pred] >= si {
					return errf(oc.Source, "ID-literal %s used in the stratum computing %s", a.String(), a.Pred)
				}
				n := IDNeed{Pred: a.Pred, Group: a.Group}
				n.Bound = bounds[n.Key()]
				needs[n.Key()] = n
			}
		}
		keys := make([]string, 0, len(needs))
		for k := range needs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s.IDNeeds = append(s.IDNeeds, needs[k])
		}
	}
	return nil
}

// maxTidBound caps pruning bounds so huge constants degrade to full
// materialization instead of overflowing.
const maxTidBound = 1 << 30

// tidBound derives the static tid bound of one ID-literal occurrence:
// c+1 for a constant tid c, or the tightest clause-level comparison
// constraint on the tid variable (T < c, T <= c, T = c, c > T, c >= T).
// Zero means no bound could be established.
func tidBound(c *ast.Clause, a *ast.Atom) int {
	if len(a.Args) == 0 {
		return 0
	}
	switch tid := a.Args[len(a.Args)-1].(type) {
	case ast.Const:
		if tid.Val.IsInt() && tid.Val.Num >= 0 && tid.Val.Num < maxTidBound {
			return int(tid.Val.Num) + 1
		}
	case ast.Var:
		best := 0
		for _, l := range c.Body {
			if l.Neg || l.Atom == nil {
				continue
			}
			if b := comparisonBound(l.Atom, tid.Name); b > 0 && (best == 0 || b < best) {
				best = b
			}
		}
		return best
	}
	return 0
}

// comparisonBound extracts an exclusive upper bound on varName from a
// single comparison literal, or 0.
func comparisonBound(a *ast.Atom, varName string) int {
	if len(a.Args) != 2 {
		return 0
	}
	isVar := func(i int) bool {
		v, ok := a.Args[i].(ast.Var)
		return ok && v.Name == varName
	}
	constAt := func(i int) (int64, bool) {
		cst, ok := a.Args[i].(ast.Const)
		if !ok || !cst.Val.IsInt() || cst.Val.Num < 0 || cst.Val.Num >= maxTidBound {
			return 0, false
		}
		return cst.Val.Num, true
	}
	switch a.Pred {
	case "lt": // T < c
		if isVar(0) {
			if c, ok := constAt(1); ok {
				return int(c)
			}
		}
	case "le": // T <= c
		if isVar(0) {
			if c, ok := constAt(1); ok {
				return int(c) + 1
			}
		}
	case "gt": // c > T
		if isVar(1) {
			if c, ok := constAt(0); ok {
				return int(c)
			}
		}
	case "ge": // c >= T
		if isVar(1) {
			if c, ok := constAt(0); ok {
				return int(c) + 1
			}
		}
	case "eq": // T = c  or  c = T
		if isVar(0) {
			if c, ok := constAt(1); ok {
				return int(c) + 1
			}
		}
		if isVar(1) {
			if c, ok := constAt(0); ok {
				return int(c) + 1
			}
		}
	}
	return 0
}
