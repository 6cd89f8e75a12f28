package core

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"idlog/internal/analysis"
	"idlog/internal/arith"
	"idlog/internal/ast"
	"idlog/internal/relation"
)

// This file is the cost-based join planner. Analysis produces a SAFE
// body order (internal/analysis/safety.go); at component-compile time,
// when relation cardinalities are known, the planner re-orders each body
// by estimated selectivity under the same eligibility rules, and builds
// the delta-first clause variants that let semi-naive passes enumerate
// the (small) delta at depth 0 instead of a full relation. Correctness
// never depends on the chosen order — any eligibility-respecting order
// computes the same perfect model — so Options.NoPlanner can fall back
// to the analysis order at any time.

// planReorders counts clause compilations whose planned body order
// differs from the analysis safety order (including delta-first
// variants that moved the delta literal). Process-global, exported for
// the idlogd /metrics endpoint.
var planReorders atomic.Uint64

// PlanReordersTotal reports how many compiled clause bodies the cost
// planner has reordered away from the analysis order in this process.
func PlanReordersTotal() uint64 { return planReorders.Load() }

// cardFn reports the estimated tuple count of the relation a body
// literal reads, as of the snapshot it was built from.
type cardFn func(l *ast.Literal) float64

// snapshotCard takes the cardinality snapshot for planning clauses:
// relations outside the set being planned (the EDB, earlier strata and
// earlier components of this stratum) report their exact current size,
// materialized ID-relations their size, and predicates in inSet — empty
// at plan time — a crude "recursive output outgrows its feeders"
// default of 4x the largest relation the clauses read. The sizes are
// read now, so the snapshot stays what the planner saw however the
// relations grow afterwards (ExplainPlan renders it).
func snapshotCard(clauses []*analysis.OrderedClause, inSet map[string]bool, rels, idrels map[string]*relation.Relation) cardFn {
	def := 32.0
	sizes := map[string]float64{} // predicate or ID-relation key → size
	for _, oc := range clauses {
		for _, l := range oc.Clause.Body {
			a := l.Atom
			if a == nil || arith.IsBuiltin(a.Pred) || (!a.IsID && inSet[a.Pred]) {
				continue
			}
			key, r := a.Pred, rels[a.Pred]
			if a.IsID {
				key = analysis.IDNeed{Pred: a.Pred, Group: a.Group}.Key()
				r = idrels[key]
			}
			if r == nil {
				continue
			}
			n := float64(r.EstimateCard())
			sizes[key] = n
			if !a.IsID && n > def {
				def = n
			}
		}
	}
	def *= 4
	return func(l *ast.Literal) float64 {
		a := l.Atom
		key := a.Pred
		if a.IsID {
			key = analysis.IDNeed{Pred: a.Pred, Group: a.Group}.Key()
		}
		if n, ok := sizes[key]; ok {
			return n
		}
		return def
	}
}

// estCost estimates the number of body instantiations literal l
// contributes when evaluated next under the given bound variables: for
// a relational literal with b of its a argument positions bound, the
// classic card^((a-b)/a) reduction (a full probe key ≈ one membership
// test, a cold scan ≈ the whole relation). Negated literals are pure
// filters and interpreted literals bounded computations, so both are
// scheduled as early as eligibility allows.
func estCost(l *ast.Literal, bound map[string]bool, card cardFn) float64 {
	a := l.Atom
	if arith.IsBuiltin(a.Pred) {
		return 0.5
	}
	if l.Neg {
		return 0.25
	}
	n := card(l)
	if n < 1 {
		n = 1
	}
	arity := len(a.Args)
	if arity == 0 {
		return 1
	}
	b := analysis.BoundCount(l, bound)
	if b > arity {
		b = arity
	}
	return math.Pow(n, float64(arity-b)/float64(arity))
}

// planBody greedily orders body (any safe order) by estimated cost,
// binding variables as it goes. forced, when >= 0, pins body[forced] to
// depth 0 — the delta-first rotation of semi-naive variants (positive
// relational literals are always eligible, so pinning one is safe).
// Returns nil if no eligible literal remains at some step; with the
// upward-closed builtin patterns this cannot happen for an
// analysis-ordered body, but callers fall back defensively.
func planBody(body []*ast.Literal, forced int, card cardFn) []*ast.Literal {
	return planBodyBound(body, nil, forced, card)
}

// planBodyBound is planBody with pre-bound variables: head-bound
// rederivation probes seed their environment from the candidate tuple,
// so every head variable is bound before the body starts and the
// planner may order (and cost) the body under that binding.
func planBodyBound(body []*ast.Literal, pre map[string]bool, forced int, card cardFn) []*ast.Literal {
	bound := map[string]bool{}
	for v := range pre {
		bound[v] = true
	}
	remaining := make([]*ast.Literal, len(body))
	copy(remaining, body)
	ordered := make([]*ast.Literal, 0, len(body))
	if forced >= 0 {
		l := remaining[forced]
		remaining = append(remaining[:forced], remaining[forced+1:]...)
		ordered = append(ordered, l)
		analysis.Bind(l, bound)
	}
	for len(remaining) > 0 {
		best := -1
		bestCost := math.Inf(1)
		for i, l := range remaining {
			if !analysis.Eligible(l, bound) {
				continue
			}
			// Strict < keeps the earliest literal on ties: deterministic,
			// and follows the source order like the analysis tie-break.
			if c := estCost(l, bound, card); c < bestCost {
				best, bestCost = i, c
			}
		}
		if best < 0 {
			return nil
		}
		l := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		ordered = append(ordered, l)
		analysis.Bind(l, bound)
	}
	return ordered
}

// sameBody reports whether two body orders are identical.
func sameBody(a, b []*ast.Literal) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reordered wraps a planned body back into an OrderedClause, counting
// the reorder when the plan differs from the reference order.
func reordered(oc *analysis.OrderedClause, body []*ast.Literal, ref []*ast.Literal) *analysis.OrderedClause {
	if sameBody(body, ref) {
		return oc
	}
	planReorders.Add(1)
	return &analysis.OrderedClause{
		Clause:    &ast.Clause{Head: oc.Clause.Head, Body: body},
		Source:    oc.Source,
		Recursive: oc.Recursive,
	}
}

// planUnit is one semi-naive delta work item: clause all[idx] with the
// delta relation substituted at body position pos. Planner-built
// variants always carry pos == 0 (the delta literal is rotated to depth
// 0, so each pass enumerates the delta and probes the rest).
type planUnit struct {
	idx int
	pos int
}

// componentPlan is the compiled evaluation plan of one component: the
// seed-pass clauses (all[:nseed], one per source clause, in source
// order), the delta-first variant clauses appended after them, and the
// per-seed-clause delta units driving semi-naive rounds. Sequential and
// parallel fixpoints iterate units in the same nested order, which keeps
// their insertion orders identical. card is the cardinality snapshot the
// plan was compiled from; like units it is static and shared by clones.
type componentPlan struct {
	all   []*compiledClause
	nseed int
	units [][]planUnit
	card  cardFn
}

// compileComponentPlan compiles component c. With the planner on, every
// clause body is selectivity-ordered under the cardinality snapshot and
// every recursive position gets a delta-first variant; with it off, the
// analysis order is compiled as-is and deltas substitute in place.
func compileComponentPlan(c *analysis.Component, inComp func(string) bool, card cardFn, noPlanner bool) (*componentPlan, error) {
	sp := &componentPlan{card: card}
	for _, oc := range c.Clauses {
		soc := oc
		if !noPlanner {
			if body := planBody(oc.Clause.Body, -1, card); body != nil {
				soc = reordered(oc, body, oc.Clause.Body)
			}
		}
		cc, err := compileClause(soc, inComp)
		if err != nil {
			return nil, err
		}
		sp.all = append(sp.all, cc)
	}
	sp.nseed = len(sp.all)
	sp.units = make([][]planUnit, sp.nseed)
	for ci := 0; ci < sp.nseed; ci++ {
		cc := sp.all[ci]
		for _, pos := range cc.recPositions {
			if noPlanner {
				sp.units[ci] = append(sp.units[ci], planUnit{idx: ci, pos: pos})
				continue
			}
			body := cc.src.Clause.Body
			vbody := planBody(body, pos, card)
			if vbody == nil {
				sp.units[ci] = append(sp.units[ci], planUnit{idx: ci, pos: pos})
				continue
			}
			voc := reordered(cc.src, vbody, body)
			if voc == cc.src {
				// The delta literal already sits at depth 0 of the seed
				// plan and nothing else moved: reuse the seed clause.
				sp.units[ci] = append(sp.units[ci], planUnit{idx: ci, pos: pos})
				continue
			}
			vcc, err := compileClause(voc, inComp)
			if err != nil {
				return nil, err
			}
			sp.units[ci] = append(sp.units[ci], planUnit{idx: len(sp.all), pos: 0})
			sp.all = append(sp.all, vcc)
		}
	}
	return sp, nil
}

// planner reports whether this run compiles with the cost planner.
// Trace runs stick to the analysis order so recorded provenance (and
// Result.Explain output) is independent of cardinalities.
func (o Options) planner() bool { return !o.NoPlanner && !o.Trace }

// PlannerEnabled reports whether these Options compile with the cost
// planner (off when NoPlanner is set, or when Trace records provenance,
// which must stay independent of cardinalities).
func (o Options) PlannerEnabled() bool { return o.planner() }

// ExplainPlan renders the join plans the engine runs for info over db:
// per stratum and component, each clause's chosen literal order with
// probe columns and estimated cardinalities, plus its delta-first
// variants. It evaluates the program once (same opts, no plan cache) and
// renders the plans that run compiled, each with the cardinality
// snapshot its component's planner saw; the result is discarded.
func ExplainPlan(info *analysis.Info, db *Database, opts Options) (string, error) {
	opts.PlanCache = nil
	_, plans, err := evalPlans(info, db, opts)
	if err != nil {
		return "", err
	}
	noPlanner := !opts.planner()
	var b strings.Builder
	for si, s := range info.Strata {
		fmt.Fprintf(&b, "stratum %d: %s\n", si, strings.Join(s.Preds, ", "))
		for ci, c := range s.Components {
			fmt.Fprintf(&b, "  component %d: %s\n", ci, strings.Join(c.Preds, ", "))
			explainComponent(&b, plans[si][ci])
		}
	}
	if noPlanner {
		b.WriteString("(planner off: bodies in analysis order, deltas substituted in place)\n")
	}
	return b.String(), nil
}

// explainComponent writes the plan lines of one compiled component.
func explainComponent(b *strings.Builder, sp *componentPlan) {
	for ci := 0; ci < sp.nseed; ci++ {
		cc := sp.all[ci]
		if len(cc.lits) == 0 {
			continue // facts have no join to plan
		}
		fmt.Fprintf(b, "    clause %s\n", cc.src.Source)
		writePlanLine(b, "plan", cc.src.Clause.Body, -1, sp.card)
		for _, u := range sp.units[ci] {
			vcc := sp.all[u.idx]
			writePlanLine(b, "delta "+vcc.lits[u.pos].pred, vcc.src.Clause.Body, u.pos, sp.card)
		}
	}
}

// writePlanLine renders one literal order: each step shows the literal,
// its access path (delta/scan/probe with the 0-based probe columns, or
// filter/compute for negated and interpreted literals) and the
// estimated rows it contributes.
func writePlanLine(b *strings.Builder, label string, body []*ast.Literal, deltaPos int, card cardFn) {
	fmt.Fprintf(b, "      %s:", label)
	bound := map[string]bool{}
	for i, l := range body {
		if i > 0 {
			b.WriteString(" ;")
		}
		a := l.Atom
		fmt.Fprintf(b, " %s", l)
		switch {
		case arith.IsBuiltin(a.Pred):
			b.WriteString(" [compute]")
		case l.Neg:
			b.WriteString(" [filter]")
		default:
			var probe []int
			for pos, t := range a.Args {
				switch t := t.(type) {
				case ast.Const:
					probe = append(probe, pos)
				case ast.Var:
					if bound[t.Name] {
						probe = append(probe, pos)
					}
				}
			}
			est := estCost(l, bound, card)
			switch {
			case i == deltaPos:
				b.WriteString(" [delta scan]")
			case len(probe) == 0:
				fmt.Fprintf(b, " [scan ~%.0f]", est)
			default:
				cols := make([]string, len(probe))
				for j, c := range probe {
					cols[j] = fmt.Sprintf("%d", c)
				}
				fmt.Fprintf(b, " [probe (%s) ~%.0f]", strings.Join(cols, ","), est)
			}
		}
		analysis.Bind(l, bound)
	}
	b.WriteByte('\n')
}
