package core

import (
	"errors"
	"maps"
	"slices"

	"idlog/internal/analysis"
	"idlog/internal/ast"
	"idlog/internal/guard"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// This file is the engine's side of live-view maintenance: a view's
// plans, and a Pass whose insertion propagation, deletion candidates
// and forward saturation enter engine.fixpoint with given deltas,
// component by component. Only the head-bound proof search walks on its
// own. The maintenance algorithm (fallback boundary, phase order, old
// views) lives in internal/incremental.

// CompiledStratum is a live view's plan for one stratum: one component
// plan per component, in dependency order, compiled by
// compileComponentPlan with every positive ordinary body position as a
// delta position (an update's deltas arrive for the EDB and lower
// strata too), and the head-bound proof-search clauses grouped by head
// predicate. Plans keep scratch, so they are single-threaded; a view
// serializes its applies.
type CompiledStratum struct {
	// Preds are the predicates defined by the stratum, as in
	// analysis.Stratum.
	Preds []string
	comps []*analysis.Component
	plans []*componentPlan
	// sat is a second copy of plans for B/F saturation, which runs
	// inside the derive hook of a candidate walk over plans and so
	// needs cursor scratch of its own.
	sat   []*componentPlan
	bound map[string][]*headBoundClause
}

// Components returns the number of components of the stratum.
func (cs *CompiledStratum) Components() int { return len(cs.comps) }

// headBoundClause is a clause compiled with its head variables bound
// first: B/F's proof search ("does this fact still have a
// derivation?") seeds the environment from one fact and walks only the
// matching body instantiations.
type headBoundClause struct {
	cc   *compiledClause
	seed []compiledArg
	// own lists the positions of cc's literals over the clause's own
	// component: the body facts a check recurses into.
	own []int
	// levels and envs are cc's cursor scratch and environment per
	// proof-search depth: a check walks its depth's copy while the
	// checks it recurses into walk deeper ones.
	levels []*compiledClause
	envs   [][]value.Value
}

// at returns the clause and environment of proof-search depth d.
func (hb *headBoundClause) at(d int) (*compiledClause, []value.Value) {
	for len(hb.levels) <= d {
		hb.levels = append(hb.levels, hb.cc.clone())
		hb.envs = append(hb.envs, make([]value.Value, hb.cc.nslots))
	}
	return hb.levels[d], hb.envs[d]
}

// CompileStratum builds the live view's plan for stratum si of info
// under the cardinalities of rels and idrels, the view's materialized
// relations. Unlike at batch time, the stratum's own relations are
// materialized too, so every predicate reports its exact size.
func CompileStratum(info *analysis.Info, si int, rels, idrels map[string]*relation.Relation) (*CompiledStratum, error) {
	s := info.Strata[si]
	card := snapshotCard(s.Clauses, map[string]bool{}, rels, idrels)
	cs := &CompiledStratum{Preds: s.Preds, comps: s.Components, bound: map[string][]*headBoundClause{}}
	for _, c := range s.Components {
		sp, err := compileComponentPlan(c, func(string) bool { return true }, card)
		if err != nil {
			return nil, err
		}
		cs.plans = append(cs.plans, sp)
		cs.sat = append(cs.sat, sp.clone())
		for _, cc := range sp.all[:sp.nseed] {
			soc := cc.src
			pre := map[string]bool{}
			for _, t := range soc.Clause.Head.Args {
				if v, ok := t.(ast.Var); ok {
					pre[v.Name] = true
				}
			}
			if body := planBodyBound(soc.Clause.Body, pre, -1, card); body != nil {
				soc = reordered(soc, body, soc.Clause.Body)
			}
			cc, seed, err := compileClauseHeadBound(soc)
			if err != nil {
				return nil, err
			}
			hb := &headBoundClause{cc: cc, seed: seed}
			for i, cl := range cc.lits {
				if !cl.neg && !cl.isID && cl.call == nil && slices.Contains(c.Preds, cl.pred) {
					hb.own = append(hb.own, i)
				}
			}
			cs.bound[cc.headPred] = append(cs.bound[cc.headPred], hb)
		}
	}
	return cs, nil
}

// Pass is one maintenance pass of a live view: an engine over the
// view's materialized relations, which its operators mutate in place.
// The caller owns synchronization.
type Pass struct{ e *engine }

// NewPass starts a pass over rels (EDB and IDB relations by predicate)
// and idrels (ID-relations by need key). opts.Guard, when set, governs
// the pass; opts.Oracle is Recompute's.
func NewPass(info *analysis.Info, rels, idrels map[string]*relation.Relation, opts Options) *Pass {
	g := opts.Guard
	if g == nil {
		g = guard.New(nil, guard.Limits{})
	}
	return &Pass{e: &engine{info: info, opts: opts, g: g, governed: g.Active(), work: rels, idrels: idrels}}
}

// Stats returns the engine counters the pass has accumulated.
func (p *Pass) Stats() Stats { return p.e.stats }

// Derive propagates insertions through component ci of cs: deltas
// holds, per predicate, tuples already in the relations whose
// consequences may be missing (this update's insertions below the
// component, and the stratum's additions so far). What they newly
// derive is appended to the relations; since insertion only appends, it
// is the tail of each relation past its length before the call.
func (p *Pass) Derive(cs *CompiledStratum, ci int, deltas map[string]*relation.Relation) error {
	return p.e.propagate(cs.comps[ci], cs.plans[ci], deltas, sink{into: p.e.work})
}

// errStop ends a proof-search walk at its first useful instance.
var errStop = errors.New("stop walk")

// Delete is Backward/Forward deletion (B/F; Motik, Nenov, Piro and
// Horrocks, AAAI 2015) over stratum cs. dels holds the deletions below
// the stratum (EDB and lower strata), which are already gone from the
// relations; oldOf resolves a predicate to its pre-update relation.
// Component by component in dependency order:
//   - candidates are the heads the current relations hold that are
//     derived with a deleted or disproved fact at the delta position,
//     every other position reading the pre-update state;
//   - a candidate is checked (bf.check), a memoized head-bound proof
//     search over the facts still standing;
//   - a candidate the check cannot prove is disproved, and only
//     disproved facts propagate as the next round's deletions.
//
// Delete returns the disproved facts per predicate of the stratum and
// the number of candidates; every other candidate was proved to
// survive. Nothing is removed: that is the caller's.
func (p *Pass) Delete(cs *CompiledStratum, dels map[string]*relation.Relation, oldOf func(pred string) *relation.Relation) (map[string]*relation.Relation, int, error) {
	b := &bf{e: p.e, cs: cs, disproved: map[string]*relation.Relation{}}
	given := maps.Clone(dels)
	for ci, c := range cs.comps {
		b.ci, b.saturating = ci, false
		b.checked = make(map[string]*relation.Relation, len(c.Preds))
		b.proved = make(map[string]*relation.Relation, len(c.Preds))
		b.cand = make(map[string]*relation.Relation, len(c.Preds))
		for _, q := range c.Preds {
			ar := p.e.info.Arity[q]
			b.checked[q], b.proved[q], b.cand[q] = relation.New(q, ar), relation.New(q, ar), relation.New(q, ar)
			b.disproved[q] = relation.New(q, ar)
		}
		err := p.e.propagate(c, cs.plans[ci], given, sink{into: b.disproved, held: p.e.work, old: oldOf, check: b.candidate})
		if err != nil {
			return nil, 0, err
		}
		for _, q := range c.Preds {
			given[q] = b.disproved[q]
		}
	}
	return b.disproved, b.cands, nil
}

// bf is the state of one Delete. Per predicate of the component K under
// maintenance it holds the facts checked (C), proved (P) and seen as
// candidates; disproved (D) spans every component so far. A fact
// outside K is present when the current relations hold it and, for a
// fact of an earlier component, D does not.
//
// Removing D is exact because of three properties. P is sound: every
// fact in P has an instance whose other body facts are present or in P.
// P is closed over C between candidates: a checked fact with such an
// instance is in P. And check visits every instance of a fact whose K
// body facts the current relations hold outside D, checking each of
// them, so a fact left in C \ P when a candidate's check returns has no
// derivation a later proof could complete: no fact of D ever gains
// support. Every fact that lost all its derivations becomes a candidate,
// since candidates propagate from every disproved fact and read the
// pre-update state elsewhere (induction on proof height), and P's
// soundness keeps it out of P.
type bf struct {
	e  *engine
	cs *CompiledStratum
	ci int

	checked, proved, cand map[string]*relation.Relation
	disproved             map[string]*relation.Relation
	cands                 int
	// saturating is set once a nested check of the component returns
	// unproved. Until then every checked fact outside P is on the
	// check stack or in D, so a proof need not run forward to reach
	// them: a fact on the stack sees its instance complete when the
	// checks of its body facts return, and D can never be proved.
	saturating bool
}

// candidate is the candidate sink's check: it reports whether the head
// t of pred is disproved, checking it the first time it is a candidate.
func (b *bf) candidate(pred string, t value.Tuple) (bool, error) {
	stored, err := b.cand[pred].InsertShared(t)
	if stored == nil {
		return false, err // decided when it first was a candidate
	}
	b.cands++
	if err := b.check(pred, stored, 0); err != nil {
		return false, err
	}
	return !b.proved[pred].Contains(stored), nil
}

// check is B/F's proof search for fact t of pred, at recursion depth
// depth. A fact is checked once. check visits t's instances whose K
// body facts stand outside D, checks each of those facts in turn, and
// proves t from the first instance whose K body facts are all proved.
//
// An instance left incomplete cannot complete later unless saturation
// runs forward into it: its unproved body facts were on the check stack
// (suspended, so proved, if at all, only after t's check returns) or
// unproved after their own check, which makes the component saturating.
func (b *bf) check(pred string, t value.Tuple, depth int) error {
	stored, err := b.checked[pred].InsertShared(t)
	if stored == nil {
		return err
	}
	for _, hb := range b.cs.bound[pred] {
		ok, err := b.walk(pred, hb, stored, depth)
		if ok || err != nil {
			return err
		}
	}
	if depth > 0 {
		b.saturating = true
	}
	return nil
}

// walk enumerates hb's instances with head t, reading the current
// relations, and reports whether t got proved, which ends the walk. For
// each instance whose body facts are present or in K outside D, walk
// checks the K body facts not yet proved, and proves t when all are.
func (b *bf) walk(pred string, hb *headBoundClause, t value.Tuple, depth int) (bool, error) {
	cc, env := hb.at(depth)
	if !seed(hb.seed, t, env) {
		return false, nil
	}
	e := b.e
	proved := b.proved[pred]
	rn := runner{resolve: e.resolve, stats: &e.stats}
	rn.derive = func(cc *compiledClause, _ []value.Value, _ value.Tuple) error {
		if e.governed {
			if err := e.grant(cc.srcText); err != nil {
				return err
			}
		}
		e.stats.Derivations++
		if hidden(cc, b.disproved) {
			return nil
		}
		for _, i := range hb.own {
			g, q := cc.iters[i].current(), cc.lits[i].pred
			if b.proved[q].Contains(g) {
				continue
			}
			if err := b.check(q, g, depth+1); err != nil {
				return err
			}
			if proved.Contains(t) {
				return errStop
			}
		}
		for _, i := range hb.own {
			if !b.proved[cc.lits[i].pred].Contains(cc.iters[i].current()) {
				return nil
			}
		}
		if err := b.prove(pred, t); err != nil {
			return err
		}
		return errStop
	}
	err := rn.walk(cc, env, -1, nil)
	e.settle()
	if err == errStop {
		return true, nil
	}
	return false, err
}

// prove adds t to P. Once the component is saturating, it also runs
// forward from t: the component's delta-position plans, K literals
// reading P and the others reading present facts, prove every checked
// fact they derive, and continue from each.
func (b *bf) prove(pred string, t value.Tuple) error {
	stored, err := b.proved[pred].InsertShared(t)
	if stored == nil || !b.saturating {
		return err
	}
	d := relation.NewDelta(pred, len(stored), 1)
	d.Append(stored)
	e := b.e
	read := func(q string) *relation.Relation {
		if r := b.proved[q]; r != nil {
			return r
		}
		return e.work[q]
	}
	return e.propagate(b.cs.comps[b.ci], b.cs.sat[b.ci], map[string]*relation.Relation{pred: d},
		sink{into: b.proved, held: b.checked, old: read, absent: b.disproved})
}

// hidden reports whether a positive ordinary body fact of the instance
// cc's cursors hold is in absent.
func hidden(cc *compiledClause, absent map[string]*relation.Relation) bool {
	for i := range cc.lits {
		cl := &cc.lits[i]
		if cl.neg || cl.isID || cl.call != nil {
			continue
		}
		if a := absent[cl.pred]; a != nil && a.Len() > 0 && a.Contains(cc.iters[i].current()) {
			return true
		}
	}
	return false
}

// seed loads the head tuple t into env through a head-bound clause's
// seed args, reporting false when t cannot match the head.
func seed(args []compiledArg, t value.Tuple, env []value.Value) bool {
	for i, a := range args {
		switch a.kind {
		case argConst:
			if !t[i].Equal(a.val) {
				return false
			}
		case argBind:
			env[a.slot] = t[i]
		case argCheck:
			if !t[i].Equal(env[a.slot]) {
				return false
			}
		}
	}
	return true
}

// Recompute is the view's fallback for strata the delta machinery
// cannot maintain (ID-literals, or negation over a changed stratum): it
// resets the IDB relations of strata[from:], re-materializes their
// ID-relations under the pass's oracle and runs them to fixpoint, under
// opts.MaxDerivations when the pass is ungoverned. Groups the update
// did not touch keep their IDs: the oracles number content, not order.
func (p *Pass) Recompute(from int) (err error) {
	e := p.e
	if e.opts.Guard == nil {
		e.g = e.opts.guard()
		e.governed = e.g.Active()
	}
	defer func() {
		if r := recover(); r != nil {
			err = guard.Errorf(guard.Internal, e.g.Op(),
				"panic in stratum %d (clause %s): %v", e.g.Stratum(), e.curClause, r)
		}
	}()
	for i := from; i < len(e.info.Strata); i++ {
		for _, q := range e.info.Strata[i].Preds {
			e.work[q] = relation.New(q, e.info.Arity[q])
		}
	}
	for i := from; i < len(e.info.Strata); i++ {
		if e.governed {
			if err := e.g.StartStratum(i); err != nil {
				return err
			}
		}
		if err := e.evalStratum(i, e.info.Strata[i]); err != nil {
			return err
		}
	}
	return nil
}
