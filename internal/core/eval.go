package core

import (
	"fmt"

	"idlog/internal/analysis"
	"idlog/internal/guard"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// Options configures a single evaluation run.
type Options struct {
	// Oracle chooses ID-functions; nil defaults to relation.SortedOracle,
	// giving a deterministic canonical run.
	Oracle relation.Oracle
	// MaxDerivations aborts evaluation once the total number of body
	// instantiations exceeds this bound (0 = unlimited); a safety valve
	// for generated programs. Ignored when Guard is set — fold the
	// budget into the guard's limits instead.
	MaxDerivations int
	// Trace records, for every derived tuple, the clause and ground
	// body facts of its first derivation, enabling Result.Explain.
	// Costs memory proportional to the model. A traced run uses the
	// planned body order and the plan cache like any other run; body
	// facts are recorded in the analysis order.
	Trace bool
	// PlanCache, when non-nil, memoizes compiled component plans across
	// evaluations keyed by (program, database version); see PlanCache
	// for the invalidation and correctness contract. A fully successful
	// run publishes its plans; a hit skips cardinality estimation and
	// plan compilation.
	PlanCache *PlanCache
	// Parallelism is ignored: every round runs on the calling
	// goroutine. The field remains only because the benchmark harness
	// still sets it; no evaluation path reads it.
	Parallelism int
	// Guard governs the run (cancellation, deadlines, budgets, fault
	// injection). Nil builds a fresh guard carrying only
	// MaxDerivations. An Enumerate walk shares one guard across its
	// runs, so budgets span the whole walk.
	Guard *guard.Guard
}

func (o Options) oracle() relation.Oracle {
	if o.Oracle == nil {
		return relation.SortedOracle{}
	}
	return o.Oracle
}

func (o Options) guard() *guard.Guard {
	if o.Guard != nil {
		return o.Guard
	}
	return guard.New(nil, guard.Limits{MaxDerivations: o.MaxDerivations})
}

// Eval computes the perfect model of the analyzed program over db for
// the ID-function assignment drawn from opts.Oracle (Theorem 1: for a
// fixed assignment the stratified program has a unique perfect model,
// computed stratum by stratum as an iterated minimal model; within a
// stratum, component by component in dependency order).
//
// Eval degrades gracefully under governance: when the run's guard trips
// (cancellation, deadline, budget) the partially computed model is
// returned alongside the typed error, marked Incomplete with
// CompletedStrata set. Because strata are evaluated in dependency order
// and negation only consults earlier strata, every tuple of a partial
// model has a sound derivation — the partial model is a prefix of the
// perfect model for the same oracle. Engine panics are recovered and
// converted to guard.Internal errors carrying the stratum and clause
// under evaluation.
func Eval(info *analysis.Info, db *Database, opts Options) (*Result, error) {
	res, _, err := evalPlans(info, db, opts)
	return res, err
}

// evalPlans is Eval that also returns the component plans the run
// executed, indexed by stratum and component (ExplainPlan renders them).
func evalPlans(info *analysis.Info, db *Database, opts Options) (res *Result, plans [][]*componentPlan, err error) {
	g := opts.guard()
	e := &engine{info: info, opts: opts, g: g, governed: g.Active(),
		work: map[string]*relation.Relation{}, idrels: map[string]*relation.Relation{}}
	if opts.Trace {
		e.prov = map[string]provEntry{}
	}
	defer func() {
		if r := recover(); r != nil {
			ierr := guard.Errorf(guard.Internal, g.Op(),
				"panic in stratum %d (clause %s): %v", g.Stratum(), e.curClause, r)
			res, err = e.partial(ierr), ierr
		}
	}()
	// Input relations: use the database's, or empty ones when absent.
	for p := range info.EDB {
		r := db.Relation(p)
		if r == nil {
			r = relation.New(p, info.Arity[p])
		} else if r.Arity() != info.Arity[p] {
			return nil, nil, fmt.Errorf("eval: input relation %s has arity %d, program expects %d", p, r.Arity(), info.Arity[p])
		}
		e.work[p] = r
	}
	for p := range info.IDB {
		e.work[p] = relation.New(p, info.Arity[p])
	}
	// Consult the plan cache: a hit hands every component a fresh clone
	// of its cached plan; a miss collects this run's plans for
	// publication.
	e.plans = make([][]*componentPlan, len(info.Strata))
	pc := opts.PlanCache
	var pcKey planKey
	if pc != nil {
		pcKey = planKey{info: info, dbVersion: db.Version()}
		if cached, ok := pc.get(pcKey); ok {
			e.plans = clonePlans(cached)
			pc = nil // already published; this run only consumes
		}
	}
	for i, s := range info.Strata {
		if e.governed {
			if err := e.g.StartStratum(i); err != nil {
				return e.partial(err), e.plans, err
			}
		}
		if err := e.evalStratum(i, s); err != nil {
			return e.partial(err), e.plans, err
		}
		e.completed = i + 1
	}
	if pc != nil {
		// Publish only on full success: a tripped run may hold plans for
		// a prefix of the strata. The masters are clones, so they hold no
		// cursor state pointing into this run's relations.
		pc.put(pcKey, clonePlans(e.plans))
	}
	return &Result{rels: e.work, idrels: e.idrels, Stats: e.stats, prov: e.prov,
		CompletedStrata: e.completed}, e.plans, nil
}

type engine struct {
	info     *analysis.Info
	opts     Options
	g        *guard.Guard
	governed bool
	work     map[string]*relation.Relation
	idrels   map[string]*relation.Relation
	stats    Stats
	prov     map[string]provEntry
	// plans holds the compiled component plans per stratum — cache-hit
	// clones or the plans compiled by this run (nil slots compile on
	// demand; a nil slice, as in a live view's Pass, disables collection
	// entirely).
	plans [][]*componentPlan
	// completed counts fully evaluated strata; curClause is the source
	// of the clause being instantiated (panic/error context).
	completed int
	curClause string
	// gslack and gused amortize guard consultations on the derivation
	// hot path: gslack derivations may still run under the current
	// DerivationGrant, gused have run and await settlement.
	gslack int
	gused  int
}

// partial packages the work done so far as an Incomplete result with
// the triggering error attached.
func (e *engine) partial(cause error) *Result {
	return &Result{rels: e.work, idrels: e.idrels, Stats: e.stats, prov: e.prov,
		Incomplete: true, CompletedStrata: e.completed, Err: cause}
}

// evalStratum materializes the stratum's ID-relations once, then runs
// its components to fixpoint in dependency order.
func (e *engine) evalStratum(si int, s *analysis.Stratum) error {
	// Materialize the ID-relations this stratum references; every base
	// relation is complete by now (stratification guarantees it).
	for _, need := range s.IDNeeds {
		base, ok := e.work[need.Pred]
		if !ok {
			return fmt.Errorf("eval: ID-relation over unknown predicate %s", need.Pred)
		}
		if e.governed {
			if ferr := e.g.TakeOracleFault(); ferr != nil {
				return guard.WrapErr(guard.Internal, e.g.Op(), ferr,
					fmt.Sprintf("oracle failed materializing %s", need.Key()))
			}
		}
		idr, err := relation.MaterializeIDBounded(base, need.Key(), need.Group, e.opts.oracle(), need.Bound)
		if err != nil {
			return err
		}
		e.idrels[need.Key()] = idr
		e.stats.IDRelations++
		// ID-relation rows count against the tuple budget at block
		// granularity (the block is already materialized; derived
		// tuples below are exact).
		if e.governed {
			if err := e.g.TryTuples(idr.Len()); err != nil {
				return err
			}
		}
	}

	if e.plans != nil && e.plans[si] == nil {
		e.plans[si] = make([]*componentPlan, len(s.Components))
	}
	for ci, c := range s.Components {
		if err := e.evalComponent(si, ci, c); err != nil {
			return err
		}
	}
	return nil
}

// evalComponent runs one component of stratum si to fixpoint. Its plan
// is compiled under a cardinality snapshot taken now, when earlier
// strata and the stratum's earlier components are complete and the
// stratum's ID-relations materialized: with the planner on, bodies are
// selectivity-ordered and recursive clauses get delta-first variants.
// A plan-cache hit pre-populated e.plans and skips compilation entirely.
func (e *engine) evalComponent(si, ci int, c *analysis.Component) error {
	var sp *componentPlan
	if e.plans != nil {
		sp = e.plans[si][ci]
	}
	if sp == nil {
		inComp := map[string]bool{}
		for _, p := range c.Preds {
			inComp[p] = true
		}
		card := snapshotCard(c.Clauses, inComp, e.work, e.idrels)
		var err error
		sp, err = compileComponentPlan(c, func(p string) bool { return inComp[p] }, card)
		if err != nil {
			return err
		}
		if e.plans != nil {
			e.plans[si][ci] = sp
		}
	}
	// The seed round evaluates the exit clauses only: the component's
	// own relations are still empty, so a clause reading one of them
	// could derive nothing.
	var seed []roundUnit
	for i := 0; i < sp.nseed; i++ {
		if !sp.all[i].src.Recursive {
			seed = append(seed, roundUnit{ci: i, pos: -1})
		}
	}
	return e.fixpoint(c, sp, seed, sink{into: e.work})
}

// propagate runs component c to fixpoint from given deltas, the entry
// a live view's maintenance takes: the first round runs the delta unit
// of every body position of sp whose predicate has a non-empty delta in
// given, and the rounds after it run as in fixpoint.
func (e *engine) propagate(c *analysis.Component, sp *componentPlan, given map[string]*relation.Relation, s sink) error {
	units := sp.deltaRound(given, nil)
	if len(units) == 0 {
		return nil
	}
	return e.fixpoint(c, sp, units, s)
}

// fixpoint runs component c to its least fixpoint by semi-naive
// rounds, the first of which runs units. Every later round evaluates
// the delta units of the clauses reading the component, one per such
// body position, that position reading the previous round's new tuples
// (through the planner's delta-first variant when available, in place
// otherwise) while the other positions read the full relations.
func (e *engine) fixpoint(c *analysis.Component, sp *componentPlan, units []roundUnit, s sink) error {
	// sinks receive each round's new tuples, which are the next round's
	// deltas. Deltas are append-only: a sink is fed exactly the tuples
	// the head's relation reported new, so it needs no duplicate check.
	var sinks map[string]*relation.Relation
	if c.Recursive {
		sinks = e.newDeltas(c, nil)
	}
	for {
		e.stats.Iterations++
		if err := e.direct(c, sp.all, units, sinks, s); err != nil || sinks == nil {
			return err
		}
		delta, total := sinks, 0
		for _, d := range delta {
			total += d.Len()
		}
		if total == 0 {
			return nil
		}
		if e.governed {
			if err := e.g.Checkpoint(); err != nil {
				return err
			}
		}
		sinks = e.newDeltas(c, delta)
		units = sp.deltaRound(delta, units[:0])
	}
}

// roundUnit is one unit of round work: clause ci of the component plan
// with deltaRel substituted at body position pos (-1 = seed pass).
type roundUnit struct {
	ci       int
	pos      int
	deltaRel *relation.Relation
}

// sink is a fixpoint's policy for what its rounds read and where a
// derived head goes. Batch evaluation and insertion propagation read
// the current relations and insert new heads into them; a live view's
// deletion candidates read the state before the update and collect the
// heads their check disproves, and its saturation reads proved facts
// and collects checked heads.
type sink struct {
	// into maps a head predicate to the relation new heads go into.
	into map[string]*relation.Relation
	// held, when non-nil, admits a head only when held's relation of
	// its predicate holds it. Such a head marks a tuple rather than
	// making one, so it costs derivations but no tuple budget.
	held map[string]*relation.Relation
	// check, when non-nil, further admits a held head only when it
	// reports true; the head is scratch, valid during the call.
	check func(pred string, head value.Tuple) (bool, error)
	// absent, when non-nil, drops every instance with a positive
	// ordinary body fact that absent's relation of its predicate holds.
	absent map[string]*relation.Relation
	// old, when non-nil, resolves every ordinary body predicate in
	// place of the current relations, and the rounds read it without a
	// frontier. (Saturation's proved facts grow as it runs; reading a
	// round's own additions refires instantiations but changes no
	// result.)
	old func(pred string) *relation.Relation
}

// newDeltas returns an empty delta sink per predicate of c, each sized
// for the previous round's delta when prev is non-nil (the best
// available prior for this round's).
func (e *engine) newDeltas(c *analysis.Component, prev map[string]*relation.Relation) map[string]*relation.Relation {
	next := make(map[string]*relation.Relation, len(c.Preds))
	for _, p := range c.Preds {
		hint := 0
		if prev != nil {
			hint = prev[p].Len()
		}
		next[p] = relation.NewDelta(p, e.work[p].Arity(), hint)
	}
	return next
}

// direct evaluates one round's units in order, each derivation
// handed to s as it is made and, when new, appended to the head's sink.
// The units read the component's relations as of the round's start
// (runner.frontier).
func (e *engine) direct(c *analysis.Component, clauses []*compiledClause, units []roundUnit, sinks map[string]*relation.Relation, s sink) error {
	var frontier map[string]int
	if s.old == nil {
		frontier = make(map[string]int, len(c.Preds))
		for _, p := range c.Preds {
			frontier[p] = e.work[p].Len()
		}
	}
	for _, u := range units {
		cc := clauses[u.ci]
		if err := e.run(cc, u.pos, u.deltaRel, sinks[cc.headPred], frontier, s); err != nil {
			return err
		}
	}
	return nil
}

// resolve returns the relation a compiled literal reads.
func (e *engine) resolve(cl *compiledLit) (*relation.Relation, error) {
	if cl.isID {
		r, ok := e.idrels[cl.idKey]
		if !ok {
			return nil, fmt.Errorf("eval: ID-relation %s not materialized", cl.idKey)
		}
		return r, nil
	}
	r, ok := e.work[cl.pred]
	if !ok {
		return nil, fmt.Errorf("eval: unknown predicate %s", cl.pred)
	}
	return r, nil
}

// run evaluates cc against the current relations (or s.old), the
// literal at deltaPos (-1 for none) reading deltaRel instead of its full
// relation (and its other recursive literals reading up to frontier; see
// runner). A head s admits is inserted into its relation in s.into and,
// when new there and deltaSink is non-nil, appended to deltaSink.
func (e *engine) run(cc *compiledClause, deltaPos int, deltaRel, deltaSink *relation.Relation, frontier map[string]int, s sink) error {
	full := s.into[cc.headPred]
	var held *relation.Relation
	if s.held != nil {
		held = s.held[cc.headPred]
	}
	e.curClause = cc.srcText
	rn := runner{resolve: e.resolve, stats: &e.stats, frontier: frontier}
	if s.old != nil {
		rn.resolve = func(cl *compiledLit) (*relation.Relation, error) {
			if cl.isID {
				// The fallback boundary admits only ID-literals whose
				// base is unchanged, so the current ID-relation is the
				// old one.
				return e.resolve(cl)
			}
			if r := s.old(cl.pred); r != nil {
				return r, nil
			}
			return nil, fmt.Errorf("eval: unknown predicate %s", cl.pred)
		}
	}
	rn.derive = func(cc *compiledClause, env []value.Value, head value.Tuple) error {
		if e.governed {
			if err := e.grant(cc.srcText); err != nil {
				return err
			}
		}
		e.stats.Derivations++
		if s.absent != nil && hidden(cc, s.absent) {
			return nil
		}
		if held != nil {
			if !held.Contains(head) {
				return nil
			}
			if s.check != nil {
				if ok, err := s.check(cc.headPred, head); !ok || err != nil {
					return err
				}
			}
			stored, err := full.InsertShared(head)
			if stored != nil && deltaSink != nil {
				deltaSink.Append(stored)
			}
			return err
		}
		// At the tuple limit, reject a genuinely new tuple before
		// storing it so a tripped run holds exactly the budget.
		// Duplicates fall through: they cost no memory and
		// InsertShared ignores them.
		if e.governed && e.g.AtTupleLimit() && !full.Contains(head) {
			return e.g.TryTuples(1)
		}
		stored, err := full.InsertShared(head)
		if err != nil {
			return err
		}
		if stored != nil {
			if e.governed {
				if err := e.g.TryTuples(1); err != nil {
					return err
				}
			}
			e.stats.Inserted++
			e.recordProvenance(cc, env, stored)
			if deltaSink != nil {
				deltaSink.Append(stored)
			}
		}
		return nil
	}
	err := rn.run(cc, deltaPos, deltaRel)
	e.settle()
	return err
}

// grant charges one derivation. Amortized governance: the guard is
// consulted only when the current grant is spent; in between, one
// decrement.
func (e *engine) grant(clause string) error {
	if e.gslack == 0 {
		n, err := e.g.DerivationGrant(e.gused, clause)
		e.gused = 0
		if err != nil {
			return err
		}
		e.gslack = n
	}
	e.gslack--
	e.gused++
	return nil
}

// settle accounts the derivations run under the current grant, so the
// guard is exact at clause boundaries. Without this, derivations run
// under the last grant were never accounted: Usage underreported, and a
// guard shared across runs (Enumerate builds a fresh engine per run, so
// gused restarts at zero) could overshoot MaxDerivations by up to one
// CheckInterval batch per run.
func (e *engine) settle() {
	if e.governed && e.gused > 0 {
		e.g.Settle(e.gused)
		e.gused = 0
	}
}

// runner executes the join walk of one clause (iterator.go); the engine
// builds one per clause run (the compiled scratch buffers are
// single-threaded by design). The walk is pure enumeration — each
// complete body instantiation hands the candidate head tuple (scratch;
// clone to retain) to the derive hook, which carries all mutable policy:
// governance, dedup, insertion. The resolve hook maps a compiled literal
// to the relation it reads, so the same walk serves full evaluation
// (engine state), a live view's deletion candidates (the pre-update
// state) and its saturation (proved facts).
type runner struct {
	resolve func(cl *compiledLit) (*relation.Relation, error)
	stats   *Stats
	derive  func(cc *compiledClause, env []value.Value, head value.Tuple) error
	// frontier, when non-nil, holds each component predicate's length at
	// the start of a round. A recursive literal away from the delta
	// position then reads only those positions, not the tuples the round
	// is inserting. Such a tuple is the next round's delta, and the
	// delta unit that reads it there makes every instantiation through
	// it; reading it here as well would fire those instantiations a
	// round early and then again. So semi-naive evaluation refires no
	// instantiation across rounds (E6's exact counts), and a round's
	// counts do not depend on the order its units run in.
	frontier map[string]int
}
