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
// never depends on the chosen order: any eligibility-respecting order
// computes the same perfect model (Theorem 1 fixes the model once the
// ID-functions are fixed), so every run, traced or not, runs the plan.

// planReorders counts clause compilations whose planned body order
// differs from the analysis safety order (including delta-first
// variants that moved the delta literal). Process-global, exported for
// the idlogd /metrics endpoint.
var planReorders atomic.Uint64

// PlanReordersTotal reports how many compiled clause bodies the cost
// planner has reordered away from the analysis order in this process.
func PlanReordersTotal() uint64 { return planReorders.Load() }

// relStats is what the cost model knows of the relation a body literal
// reads, as of the snapshot it was built from: its size, and the exact
// distinct count of each column (nil when the relation does not answer,
// see relation.Relation.DistinctCounts). It holds numbers only: cached
// plans keep their snapshot, and a *Relation in it would pin the
// relation.
type relStats struct {
	card     float64
	distinct []int
}

// cardFn reports the cost-model statistics of the relation a body
// literal reads.
type cardFn func(l *ast.Literal) relStats

// snapshotCard takes the statistics snapshot for planning clauses:
// relations outside the set being planned (the EDB, earlier strata and
// earlier components of this stratum) report their exact current size,
// materialized ID-relations their size, and predicates in inSet — empty
// at plan time — a crude "recursive output outgrows its feeders"
// default of 4x the largest relation the clauses read. Relations that
// answer DistinctCounts (frozen, in memory) also report their distinct
// counts. Everything is read now, so the snapshot stays what the
// planner saw however the relations grow afterwards (ExplainPlan
// renders it).
func snapshotCard(clauses []*analysis.OrderedClause, inSet map[string]bool, rels, idrels map[string]*relation.Relation) cardFn {
	def := 32.0
	stats := map[string]relStats{} // predicate or ID-relation key → statistics
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
			st, ok := stats[key]
			if !ok {
				st = relStats{card: float64(r.EstimateCard())}
				if ndv, ok := r.DistinctCounts(); ok {
					st.distinct = append([]int(nil), ndv...)
				}
				stats[key] = st
			}
			if !a.IsID && st.card > def {
				def = st.card
			}
		}
	}
	def *= 4
	return func(l *ast.Literal) relStats {
		a := l.Atom
		key := a.Pred
		if a.IsID {
			key = analysis.IDNeed{Pred: a.Pred, Group: a.Group}.Key()
		}
		if st, ok := stats[key]; ok {
			return st
		}
		return relStats{card: def}
	}
}

// boundCols returns the argument positions of l that are constants or
// variables in bound: the probe columns when l is evaluated next.
func boundCols(l *ast.Literal, bound map[string]bool) []int {
	var cols []int
	for pos, t := range l.Atom.Args {
		switch t := t.(type) {
		case ast.Const:
			cols = append(cols, pos)
		case ast.Var:
			if bound[t.Name] {
				cols = append(cols, pos)
			}
		}
	}
	return cols
}

// estimate returns the number of body instantiations literal l
// contributes when evaluated next under the given bound variables.
// Negated literals are pure filters and interpreted literals bounded
// computations, so both are scheduled as early as eligibility allows.
// When the snapshot holds distinct counts and some column is bound, a
// probe returns card / keys rows, keys = min(card, Π distinct(c)) over
// the probe columns under the independence assumption, and estimate
// also returns keys. Otherwise a relational literal falls back to
// card^((a−b)/a) for b of its a columns bound (a full key ≈ one
// membership test, a cold scan ≈ the whole relation) and keys = 0.
func estimate(l *ast.Literal, bound map[string]bool, card cardFn) (cost, keys float64) {
	a := l.Atom
	if arith.IsBuiltin(a.Pred) {
		return 0.5, 0
	}
	if l.Neg {
		return 0.25, 0
	}
	st := card(l)
	n := max(st.card, 1)
	arity := len(a.Args)
	if arity == 0 {
		return 1, 0
	}
	cols := boundCols(l, bound)
	if len(cols) > 0 && st.distinct != nil {
		keys = 1
		for _, c := range cols {
			keys *= float64(max(st.distinct[c], 1))
		}
		keys = min(keys, n)
		return n / keys, keys
	}
	return math.Pow(n, float64(arity-len(cols))/float64(arity)), 0
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

// planBodyBound is planBody with pre-bound variables: the head-bound
// proof search seeds its environment from the fact it checks,
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
			if c, _ := estimate(l, bound, card); c < bestCost {
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
// per-seed-clause delta units driving semi-naive rounds. card is the
// cardinality snapshot the plan was compiled from; like units it is
// static and shared by clones.
type componentPlan struct {
	all   []*compiledClause
	nseed int
	units [][]planUnit
	card  cardFn
}

// compileComponentPlan compiles component c: every clause body is
// selectivity-ordered under the cardinality snapshot, and every
// positive ordinary body position over a predicate deltaPred admits
// gets a delta unit, through a delta-first variant when the planner
// moves the position to depth 0. Batch evaluation admits the
// component's own predicates, whose deltas its rounds make; a live view
// admits every predicate, since an update's deltas arrive for the EDB
// and lower strata too. Each compiled literal keeps its index in the
// analysis-order body (see recordProvenance).
func compileComponentPlan(c *analysis.Component, deltaPred func(string) bool, card cardFn) (*componentPlan, error) {
	sp := &componentPlan{card: card}
	for _, oc := range c.Clauses {
		soc := oc
		if body := planBody(oc.Clause.Body, -1, card); body != nil {
			soc = reordered(oc, body, oc.Clause.Body)
		}
		cc, err := compileClause(soc, oc.Clause.Body, deltaPred)
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
			vcc, err := compileClause(voc, c.Clauses[ci].Clause.Body, deltaPred)
			if err != nil {
				return nil, err
			}
			sp.units[ci] = append(sp.units[ci], planUnit{idx: len(sp.all), pos: 0})
			sp.all = append(sp.all, vcc)
		}
	}
	return sp, nil
}

// deltaRound appends to units, in clause order, the delta unit of every
// position whose predicate has a non-empty relation in delta, that
// relation substituted there.
func (sp *componentPlan) deltaRound(delta map[string]*relation.Relation, units []roundUnit) []roundUnit {
	for ci := 0; ci < sp.nseed; ci++ {
		for _, u := range sp.units[ci] {
			if d := delta[sp.all[u.idx].lits[u.pos].pred]; d != nil && d.Len() > 0 {
				units = append(units, roundUnit{ci: u.idx, pos: u.pos, deltaRel: d})
			}
		}
	}
	return units
}

// ExplainPlan renders the join plans the engine runs for info over db:
// per stratum and component, each clause's chosen literal order with probe columns and estimated
// cardinalities, plus its delta-first variants. It evaluates the
// program once (same opts, no plan cache) and renders the plans that
// run compiled, each with the cardinality snapshot its component's
// planner saw; the result is discarded.
func ExplainPlan(info *analysis.Info, db *Database, opts Options) (string, error) {
	opts.PlanCache = nil
	_, plans, err := evalPlans(info, db, opts)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for si, s := range info.Strata {
		fmt.Fprintf(&b, "stratum %d: %s\n", si, strings.Join(s.Preds, ", "))
		for ci, c := range s.Components {
			fmt.Fprintf(&b, "  component %d: %s\n", ci, strings.Join(c.Preds, ", "))
			explainComponent(&b, plans[si][ci])
		}
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
// estimated rows it contributes, followed by "ndv K" when a probe
// estimate came from distinct counts (K distinct probe keys).
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
			probe := boundCols(l, bound)
			est, keys := estimate(l, bound, card)
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
				fmt.Fprintf(b, " [probe (%s) ~%.0f", strings.Join(cols, ","), est)
				if keys > 0 {
					fmt.Fprintf(b, " ndv %.0f", keys)
				}
				b.WriteString("]")
			}
		}
		analysis.Bind(l, bound)
	}
	b.WriteByte('\n')
}
