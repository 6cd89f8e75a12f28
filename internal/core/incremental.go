package core

import (
	"errors"
	"fmt"

	"idlog/internal/analysis"
	"idlog/internal/arith"
	"idlog/internal/ast"
	"idlog/internal/guard"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// This file exports the per-stratum operators of incremental view
// maintenance: delta-driven semi-naive propagation for insertions and
// the two delete-phase operators of DRed (overdeletion, rederivation).
// The composition into a full maintenance algorithm — fallback boundary,
// phase ordering, old-view bookkeeping — lives in internal/incremental;
// core only contributes the pieces that must see compiled-clause
// internals (the join walk, head-bound compilation, delta substitution).

// IncrState is the mutable relation state an incremental maintenance
// pass operates on: the materialized full relations (EDB and IDB, keyed
// by predicate), the materialized ID-relations (keyed by need key), the
// guard governing the pass, and the stats sink. Relations are mutated
// in place; the caller owns synchronization.
type IncrState struct {
	Rels   map[string]*relation.Relation
	IDRels map[string]*relation.Relation
	Guard  *guard.Guard
	Stats  *Stats
}

// resolveCur maps a compiled literal to the current full relation.
func (st *IncrState) resolveCur(cl *compiledLit) (*relation.Relation, error) {
	if cl.isID {
		r, ok := st.IDRels[cl.idKey]
		if !ok {
			return nil, fmt.Errorf("incremental: ID-relation %s not materialized", cl.idKey)
		}
		return r, nil
	}
	r, ok := st.Rels[cl.pred]
	if !ok {
		return nil, fmt.Errorf("incremental: unknown predicate %s", cl.pred)
	}
	return r, nil
}

func (st *IncrState) governed() bool { return st.Guard != nil && st.Guard.Active() }

// headBoundClause is a clause compiled with its head variables bound
// first: the rederivation probe of DRed ("does this tuple still have a
// derivation?") seeds the environment from a candidate tuple and walks
// only the matching body instantiations.
type headBoundClause struct {
	cc   *compiledClause
	seed []compiledArg
	env  []value.Value
}

// CompiledStratum holds the incremental evaluation plan for one
// stratum: the ordinary compiled clauses (shared by overdeletion and
// insertion propagation, which differ only in resolver and derive
// hook), their delta-first variants, and the head-bound variants
// grouped by head predicate (for rederivation). Plans are stateful
// (per-literal scratch buffers) and therefore single-threaded; a view
// serializes its applies.
type CompiledStratum struct {
	// Preds are the predicates defined by the stratum, as in
	// analysis.Stratum.
	Preds   []string
	clauses []*compiledClause
	// variants[i][pos] is the delta-first rotation of clauses[i] for
	// body position pos: the same clause re-planned with that literal
	// pinned at depth 0, so a delta pass enumerates the (small) delta
	// first and probes the rest. Positions without an entry substitute
	// the delta in place; the planner-off plan has no variants at all.
	variants []map[int]*compiledClause
	bound    map[string][]*headBoundClause
}

// CompileOptions configures CompileStratum.
type CompileOptions struct {
	// NoPlanner compiles bodies in the analysis safety order with
	// in-place delta substitution, mirroring Options.NoPlanner.
	NoPlanner bool
	// Rels / IDRels, when set, are the cardinality snapshot for the
	// planner's selectivity estimates — typically the view's
	// materialized relations at plan time. Missing entries fall back to
	// a coarse default.
	Rels   map[string]*relation.Relation
	IDRels map[string]*relation.Relation
}

// CompileStratum builds the incremental plan for stratum si of info.
// With the planner on (see CompileOptions), clause bodies are
// selectivity-ordered, every positive ordinary body position gets a
// delta-first variant — incremental deltas arrive for EDB and
// lower-stratum predicates too, not just same-stratum ones — and
// rederivation probes are planned with the head variables pre-bound.
func CompileStratum(info *analysis.Info, si int, copts CompileOptions) (*CompiledStratum, error) {
	s := info.Strata[si]
	in := map[string]bool{}
	for _, p := range s.Preds {
		in[p] = true
	}
	inStratum := func(p string) bool { return in[p] }
	// The empty in-set makes snapshotCard read every predicate's exact
	// current size: unlike at engine time, the view's own stratum
	// relations are already materialized here.
	card := snapshotCard(s.Clauses, map[string]bool{}, copts.Rels, copts.IDRels)
	cs := &CompiledStratum{Preds: s.Preds, bound: map[string][]*headBoundClause{}}
	for _, oc := range s.Clauses {
		soc := oc
		if !copts.NoPlanner {
			if body := planBody(oc.Clause.Body, -1, card); body != nil {
				soc = reordered(oc, body, oc.Clause.Body)
			}
		}
		cc, err := compileClause(soc, inStratum)
		if err != nil {
			return nil, err
		}
		cs.clauses = append(cs.clauses, cc)
		var vm map[int]*compiledClause
		if !copts.NoPlanner {
			body := soc.Clause.Body
			for pos, l := range body {
				if l.Neg || l.Atom.IsID || arith.IsBuiltin(l.Atom.Pred) {
					continue
				}
				vbody := planBody(body, pos, card)
				if vbody == nil {
					continue
				}
				voc := reordered(soc, vbody, body)
				if voc == soc {
					continue // delta literal already leads; substitute in place
				}
				vcc, err := compileClause(voc, inStratum)
				if err != nil {
					return nil, err
				}
				if vm == nil {
					vm = map[int]*compiledClause{}
				}
				vm[pos] = vcc
			}
		}
		cs.variants = append(cs.variants, vm)
		hoc := soc
		if !copts.NoPlanner {
			pre := map[string]bool{}
			for _, t := range oc.Clause.Head.Args {
				if v, ok := t.(ast.Var); ok {
					pre[v.Name] = true
				}
			}
			if body := planBodyBound(soc.Clause.Body, pre, -1, card); body != nil {
				hoc = reordered(soc, body, soc.Clause.Body)
			}
		}
		hb, seed, err := compileClauseHeadBound(hoc, inStratum)
		if err != nil {
			return nil, err
		}
		cs.bound[hb.headPred] = append(cs.bound[hb.headPred], &headBoundClause{
			cc: hb, seed: seed, env: make([]value.Value, hb.nslots)})
	}
	return cs, nil
}

// errStop short-circuits a join walk after its first complete
// instantiation (the rederivation probe needs existence, not
// enumeration).
var errStop = errors.New("stop walk")

// deltaUnits yields the delta work of clause i: for every positive,
// ordinary (non-ID, non-builtin) body position whose predicate has a
// non-empty delta, f receives the clause to run, the delta literal's
// position within it, and the delta relation. Positions with a
// delta-first variant dispatch that variant (delta at depth 0); the
// rest substitute into the base clause in place.
func (cs *CompiledStratum) deltaUnits(i int, deltas map[string]*relation.Relation, f func(cc *compiledClause, pos int, d *relation.Relation) error) error {
	cc := cs.clauses[i]
	for pos := range cc.lits {
		cl := &cc.lits[pos]
		if cl.neg || cl.isID || cl.builtin != nil {
			continue
		}
		d := deltas[cl.pred]
		if d == nil || d.Len() == 0 {
			continue
		}
		if v := cs.variants[i][pos]; v != nil {
			if err := f(v, 0, d); err != nil {
				return err
			}
			continue
		}
		if err := f(cc, pos, d); err != nil {
			return err
		}
	}
	return nil
}

// Overdelete computes DRed phase 1 for the stratum: the overestimate of
// tuples that may have lost all derivations. dels carries every
// finalized deletion visible to this stratum (EDB deletions plus
// lower-stratum IDB deletions). oldOf resolves a predicate to its
// PRE-UPDATE relation: for unchanged predicates that is the current
// relation, for changed ones the caller materializes an old view (a
// superset of the old content is sound — it can only grow the
// overestimate, which rederivation then shrinks). Own-stratum
// relations must not have been physically modified yet.
//
// The returned map holds the overdeleted tuples per stratum predicate;
// nothing has been removed from st.Rels — physical removal is the
// caller's phase 2, so rederivation sees a state with the overdeleted
// tuples absent.
func (cs *CompiledStratum) Overdelete(st *IncrState, dels map[string]*relation.Relation, oldOf func(pred string) *relation.Relation) (map[string]*relation.Relation, error) {
	resolveOld := func(cl *compiledLit) (*relation.Relation, error) {
		if cl.isID {
			// The fallback boundary admits only ID-literals whose base
			// predicate is unchanged, so the current ID-relation IS the
			// old one.
			r, ok := st.IDRels[cl.idKey]
			if !ok {
				return nil, fmt.Errorf("incremental: ID-relation %s not materialized", cl.idKey)
			}
			return r, nil
		}
		if r := oldOf(cl.pred); r != nil {
			return r, nil
		}
		return nil, fmt.Errorf("incremental: unknown predicate %s", cl.pred)
	}
	overdel := map[string]*relation.Relation{}
	cur := dels
	for {
		total := 0
		for _, d := range cur {
			total += d.Len()
		}
		if total == 0 {
			return overdel, nil
		}
		if st.governed() {
			if err := st.Guard.Checkpoint(); err != nil {
				return overdel, err
			}
		}
		next := map[string]*relation.Relation{}
		for ci := range cs.clauses {
			rn := runner{resolve: resolveOld, stats: st.Stats}
			rn.derive = func(dcc *compiledClause, _ []value.Value, head value.Tuple) error {
				if st.governed() {
					if err := st.Guard.Derivation(dcc.srcText); err != nil {
						return err
					}
				}
				st.Stats.Derivations++
				full := st.Rels[dcc.headPred]
				if full == nil || !full.Contains(head) {
					return nil
				}
				od := overdel[dcc.headPred]
				if od == nil {
					od = relation.New(dcc.headPred, full.Arity())
					overdel[dcc.headPred] = od
				}
				stored, err := od.InsertShared(head)
				if err != nil || stored == nil {
					return err
				}
				nd := next[dcc.headPred]
				if nd == nil {
					nd = relation.New(dcc.headPred, full.Arity())
					next[dcc.headPred] = nd
				}
				nd.MustInsert(stored)
				return nil
			}
			err := cs.deltaUnits(ci, cur, func(cc *compiledClause, pos int, d *relation.Relation) error {
				return rn.run(cc, pos, d, 0, -1)
			})
			if err != nil {
				return overdel, err
			}
		}
		cur = next
	}
}

// Rederive is DRed phase 3: every overdeleted tuple is probed for an
// alternative derivation against the CURRENT relations (the caller has
// already removed the overdeleted tuples, so self-support is
// impossible). Survivors are reinserted into st.Rels and returned per
// predicate; the caller must feed them into insertion propagation,
// which picks up chains (a tuple wrongly refused here because its
// support was itself overdeleted-then-rederived is rederived by the
// propagation pass).
func (cs *CompiledStratum) Rederive(st *IncrState, overdel map[string]*relation.Relation) (map[string]*relation.Relation, error) {
	redone := map[string]*relation.Relation{}
	for pred, od := range overdel {
		hbs := cs.bound[pred]
		for _, t := range od.Tuples() {
			derivable := false
			for _, hb := range hbs {
				ok, err := hb.derives(st, t)
				if err != nil {
					return redone, err
				}
				if ok {
					derivable = true
					break
				}
			}
			if !derivable {
				continue
			}
			if _, err := st.Rels[pred].Insert(t); err != nil {
				return redone, err
			}
			rd := redone[pred]
			if rd == nil {
				rd = relation.New(pred, od.Arity())
				redone[pred] = rd
			}
			rd.MustInsert(t)
		}
	}
	return redone, nil
}

// derives reports whether t has at least one derivation through hb
// against the current relations.
func (hb *headBoundClause) derives(st *IncrState, t value.Tuple) (bool, error) {
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
	found := false
	rn := runner{resolve: st.resolveCur, stats: st.Stats}
	rn.derive = func(dcc *compiledClause, _ []value.Value, _ value.Tuple) error {
		if st.governed() {
			if err := st.Guard.Derivation(dcc.srcText); err != nil {
				return err
			}
		}
		st.Stats.Derivations++
		found = true
		return errStop
	}
	if err := rn.walk(hb.cc, env, -1, nil, 0, -1); err != nil && err != errStop {
		return false, err
	}
	return found, nil
}

// Propagate performs semi-naive insertion propagation through the
// stratum: ins carries every insertion visible to it (EDB insertions,
// lower-stratum IDB insertions, and this stratum's rederived tuples),
// already physically present in st.Rels. Each pass substitutes one
// delta position per clause, with all other positions reading the full
// current relations; newly derived tuples are inserted into st.Rels and
// become the next pass's delta. The returned map holds the tuples this
// stratum newly derived, for the caller to merge into the global
// insertion set.
func (cs *CompiledStratum) Propagate(st *IncrState, ins map[string]*relation.Relation) (map[string]*relation.Relation, error) {
	added := map[string]*relation.Relation{}
	cur := ins
	for {
		total := 0
		for _, d := range cur {
			total += d.Len()
		}
		if total == 0 {
			return added, nil
		}
		if st.governed() {
			if err := st.Guard.Checkpoint(); err != nil {
				return added, err
			}
		}
		next := map[string]*relation.Relation{}
		for ci := range cs.clauses {
			rn := runner{resolve: st.resolveCur, stats: st.Stats}
			rn.derive = func(dcc *compiledClause, _ []value.Value, head value.Tuple) error {
				if st.governed() {
					if err := st.Guard.Derivation(dcc.srcText); err != nil {
						return err
					}
				}
				st.Stats.Derivations++
				full := st.Rels[dcc.headPred]
				stored, err := full.InsertShared(head)
				if err != nil || stored == nil {
					return err
				}
				if st.governed() {
					if err := st.Guard.TryTuples(1); err != nil {
						return err
					}
				}
				st.Stats.Inserted++
				ad := added[dcc.headPred]
				if ad == nil {
					ad = relation.New(dcc.headPred, full.Arity())
					added[dcc.headPred] = ad
				}
				ad.MustInsert(stored)
				nd := next[dcc.headPred]
				if nd == nil {
					nd = relation.New(dcc.headPred, full.Arity())
					next[dcc.headPred] = nd
				}
				nd.MustInsert(stored)
				return nil
			}
			err := cs.deltaUnits(ci, cur, func(cc *compiledClause, pos int, d *relation.Relation) error {
				return rn.run(cc, pos, d, 0, -1)
			})
			if err != nil {
				return added, err
			}
		}
		cur = next
	}
}

// EvalStrata recomputes strata[from:] of info from scratch against the
// current state: IDB relations of those strata are reset to empty, their
// ID-relations re-materialize under opts.Oracle, and the ordinary
// engine loop (semi-naive or parallel per opts) runs them to fixpoint.
// This is the incremental layer's fallback for strata the delta/DRed
// machinery cannot maintain (ID-literals, or negation over a changed
// stratum). Oracle stability for untouched groups is the oracle's
// contract: RandomOracle keys its permutation on group content, so
// groups the update did not touch keep their ID assignment.
func EvalStrata(info *analysis.Info, st *IncrState, from int, opts Options) (err error) {
	g := opts.guard()
	if st.Guard != nil {
		g = st.Guard
	}
	e := &engine{info: info, opts: opts, g: g, governed: g.Active(),
		work: st.Rels, idrels: st.IDRels}
	defer func() {
		st.Stats.Add(e.stats)
		if r := recover(); r != nil {
			err = guard.Errorf(guard.Internal, g.Op(),
				"panic in stratum %d (clause %s): %v", g.Stratum(), e.curClause, r)
		}
	}()
	for i := from; i < len(info.Strata); i++ {
		for _, p := range info.Strata[i].Preds {
			st.Rels[p] = relation.New(p, info.Arity[p])
		}
	}
	for i := from; i < len(info.Strata); i++ {
		if e.governed {
			if err := g.StartStratum(i); err != nil {
				return err
			}
		}
		if err := e.evalStratum(i, info.Strata[i]); err != nil {
			return err
		}
	}
	return nil
}
