package core

import (
	"errors"

	"idlog/internal/analysis"
	"idlog/internal/ast"
	"idlog/internal/guard"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// This file is the engine's side of live-view maintenance: a view's
// plans, and a Pass whose insertion propagation and DRed overestimate
// enter engine.fixpoint with given deltas, component by component. Only
// the head-bound rederivation probe walks on its own. The maintenance
// algorithm (fallback boundary, phase order, old views) lives in
// internal/incremental.

// CompiledStratum is a live view's plan for one stratum: one component
// plan per component, in dependency order, compiled by
// compileComponentPlan with every positive ordinary body position as a
// delta position (an update's deltas arrive for the EDB and lower
// strata too), and the head-bound rederivation probes grouped by head
// predicate. Plans keep scratch, so they are single-threaded; a view
// serializes its applies.
type CompiledStratum struct {
	// Preds are the predicates defined by the stratum, as in
	// analysis.Stratum.
	Preds []string
	comps []*analysis.Component
	plans []*componentPlan
	bound map[string][]*headBoundClause
}

// Components returns the number of components of the stratum.
func (cs *CompiledStratum) Components() int { return len(cs.comps) }

// headBoundClause is a clause compiled with its head variables bound
// first: the rederivation probe of DRed ("does this tuple still have a
// derivation?") seeds the environment from a candidate tuple and walks
// only the matching body instantiations.
type headBoundClause struct {
	cc   *compiledClause
	seed []compiledArg
	env  []value.Value
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
			hb, seed, err := compileClauseHeadBound(soc)
			if err != nil {
				return nil, err
			}
			cs.bound[hb.headPred] = append(cs.bound[hb.headPred], &headBoundClause{
				cc: hb, seed: seed, env: make([]value.Value, hb.nslots)})
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
// component, and tuples the stratum re-added). What they newly derive
// is appended to the relations; since insertion only appends, it is the
// tail of each relation past its length before the call.
func (p *Pass) Derive(cs *CompiledStratum, ci int, deltas map[string]*relation.Relation) error {
	return p.e.propagate(cs.comps[ci], cs.plans[ci], deltas, sink{into: p.e.work})
}

// Overestimate is DRed phase 1 for component ci of cs: the tuples that
// may have lost every derivation, per predicate of the component. dels
// holds every deletion the component reads (EDB, lower strata, and the
// stratum's earlier components' overestimates). Bodies read the
// pre-update state through oldOf; a superset of it is sound, since it
// only grows the overestimate, which rederivation shrinks. A derived
// head is overdeleted only when the current relation holds it. Nothing
// is removed: that is the caller's phase 2.
func (p *Pass) Overestimate(cs *CompiledStratum, ci int, dels map[string]*relation.Relation, oldOf func(pred string) *relation.Relation) (map[string]*relation.Relation, error) {
	c := cs.comps[ci]
	od := make(map[string]*relation.Relation, len(c.Preds))
	for _, q := range c.Preds {
		od[q] = relation.New(q, p.e.info.Arity[q])
	}
	err := p.e.propagate(c, cs.plans[ci], dels, sink{into: od, held: p.e.work, old: oldOf})
	return od, err
}

// errStop ends a rederivation probe's walk at its first derivation.
var errStop = errors.New("stop walk")

// Rederive is DRed phase 3: every overdeleted tuple is probed for an
// alternative derivation against the CURRENT relations (the caller has
// removed the overdeleted tuples, so self-support is impossible).
// Survivors are reinserted and counted. The caller propagates them as
// insertions, which picks up chains: a tuple refused here because its
// support comes back later is rederived by propagation.
func (p *Pass) Rederive(cs *CompiledStratum, overdel map[string]*relation.Relation) (int, error) {
	n := 0
	for _, pred := range cs.Preds {
		od := overdel[pred]
		if od == nil {
			continue
		}
		for k := range od.Len() {
			t := od.At(k)
			for _, hb := range cs.bound[pred] {
				ok, err := p.derives(hb, t)
				if err != nil {
					return n, err
				}
				if ok {
					if _, err := p.e.work[pred].Insert(t); err != nil {
						return n, err
					}
					n++
					break
				}
			}
		}
	}
	return n, nil
}

// derives reports whether t has at least one derivation through hb
// against the current relations.
func (p *Pass) derives(hb *headBoundClause, t value.Tuple) (bool, error) {
	env := hb.env
	for i, a := range hb.seed {
		switch a.kind {
		case argConst:
			if !t[i].Equal(a.val) {
				return false, nil
			}
		case argBind:
			env[a.slot] = t[i]
		case argCheck:
			if !t[i].Equal(env[a.slot]) {
				return false, nil
			}
		}
	}
	e := p.e
	rn := runner{resolve: e.resolve, stats: &e.stats}
	rn.derive = func(dcc *compiledClause, _ []value.Value, _ value.Tuple) error {
		if e.governed {
			if err := e.grant(dcc.srcText); err != nil {
				return err
			}
		}
		e.stats.Derivations++
		return errStop
	}
	err := rn.walk(hb.cc, env, -1, nil)
	e.settle()
	if err == errStop {
		return true, nil
	}
	return false, err
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
