package core

import (
	"fmt"
	"runtime"

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
	// Naive disables semi-naive (delta) evaluation; each fixpoint round
	// re-evaluates every clause against the full relations. Used by the
	// E6 ablation benchmark.
	Naive bool
	// MaxDerivations aborts evaluation once the total number of body
	// instantiations exceeds this bound (0 = unlimited); a safety valve
	// for generated programs. Ignored when Guard is set — fold the
	// budget into the guard's limits instead.
	MaxDerivations int
	// Trace records, for every derived tuple, the clause and ground
	// body facts of its first derivation, enabling Result.Explain.
	// Costs memory proportional to the model. Trace forces sequential
	// evaluation (provenance capture is inherently ordered).
	Trace bool
	// NoPlanner disables the cost-based join planner: clause bodies are
	// evaluated in the analysis safety order and semi-naive deltas are
	// substituted in place instead of rotated to depth 0. The model is
	// identical either way (the planner only picks among safe orders);
	// this is the escape hatch and the ablation baseline.
	NoPlanner bool
	// PlanCache, when non-nil, memoizes compiled component plans across
	// evaluations keyed by (program, database version, planner toggle);
	// see PlanCache for the invalidation and correctness contract. A
	// fully successful run publishes its plans; a hit skips cardinality
	// estimation and plan compilation. Trace runs bypass the cache.
	PlanCache *PlanCache
	// Parallelism bounds the worker pool of the semi-naive fixpoint:
	// each round's work is sharded across up to this many goroutines and
	// merged through a deterministic ordered reducer, so answer sets and
	// ID assignment are byte-identical to a sequential run. Zero (the
	// zero value) resolves to DefaultParallelism() — GOMAXPROCS clamped
	// to maxAutoParallelism — so parallel wins show up out of the box on
	// multi-core hardware; set 1 to force sequential evaluation. Values
	// < 0 (and Naive or Trace runs) also evaluate sequentially. It is an
	// upper bound: delta rounds of recursive components with a total
	// delta under minParallelDelta run inline on the calling goroutine.
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
	if opts.Trace {
		pc = nil
	}
	var pcKey planKey
	if pc != nil {
		pcKey = planKey{info: info, dbVersion: db.Version(), planner: opts.planner()}
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
	// demand; a nil slice, as in EvalStrata, disables collection
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
		sp, err = compileComponentPlan(c, func(p string) bool { return inComp[p] }, card, !e.opts.planner())
		if err != nil {
			return err
		}
		if e.plans != nil {
			e.plans[si][ci] = sp
		}
	}
	if e.opts.Naive {
		return e.naiveFixpoint(sp.all[:sp.nseed])
	}
	if e.workers() > 1 && !e.opts.Trace {
		return e.parallelFixpoint(c, sp)
	}
	return e.seminaiveFixpoint(c, sp)
}

// maxAutoParallelism caps the GOMAXPROCS-derived default worker count:
// beyond it the single-threaded merge phase dominates and extra
// workers only contend. Explicit Parallelism settings are not clamped.
const maxAutoParallelism = 8

// DefaultParallelism is the worker count used when Options.Parallelism
// is unset: runtime.GOMAXPROCS(0) clamped to maxAutoParallelism.
func DefaultParallelism() int {
	n := runtime.GOMAXPROCS(0)
	if n > maxAutoParallelism {
		n = maxAutoParallelism
	}
	if n < 1 {
		n = 1
	}
	return n
}

// EffectiveParallelism resolves the worker count these Options run
// with (≥ 1): the explicit Parallelism, or DefaultParallelism() when
// unset.
func (o Options) EffectiveParallelism() int {
	n := o.Parallelism
	if n == 0 {
		n = DefaultParallelism()
	}
	if n > 1 {
		return n
	}
	return 1
}

// workers resolves the effective parallelism (≥ 1).
func (e *engine) workers() int { return e.opts.EffectiveParallelism() }

// naiveFixpoint repeatedly evaluates every clause against the full
// relations until no clause derives a new tuple.
func (e *engine) naiveFixpoint(clauses []*compiledClause) error {
	for {
		if e.governed {
			if err := e.g.Checkpoint(); err != nil {
				return err
			}
		}
		e.stats.Iterations++
		inserted := 0
		for _, cc := range clauses {
			n, err := e.run(cc, -1, nil, nil, e.work[cc.headPred])
			if err != nil {
				return err
			}
			inserted += n
		}
		if inserted == 0 {
			return nil
		}
	}
}

// seminaiveFixpoint performs one naive round to seed the component, then
// iterates only the recursive clauses' delta units: each pass evaluates
// one unit per recursive body position, with the delta position reading
// the previous round's newly derived tuples (via the planner's
// delta-first variant clause when available, in place otherwise).
func (e *engine) seminaiveFixpoint(c *analysis.Component, sp *componentPlan) error {
	clauses := sp.all[:sp.nseed]
	e.stats.Iterations++
	if !c.Recursive {
		// A non-recursive component reaches fixpoint in its seed round:
		// skip the delta bookkeeping entirely.
		for _, cc := range clauses {
			if _, err := e.run(cc, -1, nil, nil, e.work[cc.headPred]); err != nil {
				return err
			}
		}
		return nil
	}
	// Deltas are append-only: the derive hook feeds them exactly the
	// tuples the full relation reported new, so they need no duplicate
	// checking and skip the primary hash table entirely.
	delta := map[string]*relation.Relation{}
	for _, p := range c.Preds {
		delta[p] = relation.NewDelta(p, e.work[p].Arity(), 0)
	}
	for _, cc := range clauses {
		if _, err := e.run(cc, -1, nil, delta[cc.headPred], e.work[cc.headPred]); err != nil {
			return err
		}
	}
	var recursive []int
	for ci := range clauses {
		if len(sp.units[ci]) > 0 {
			recursive = append(recursive, ci)
		}
	}
	for {
		total := 0
		for _, d := range delta {
			total += d.Len()
		}
		if total == 0 || len(recursive) == 0 {
			return nil
		}
		if e.governed {
			if err := e.g.Checkpoint(); err != nil {
				return err
			}
		}
		e.stats.Iterations++
		next := map[string]*relation.Relation{}
		for _, p := range c.Preds {
			// The previous round's delta size is the best available prior
			// for this round's.
			next[p] = relation.NewDelta(p, e.work[p].Arity(), delta[p].Len())
		}
		for _, ci := range recursive {
			for _, u := range sp.units[ci] {
				// Substitute the delta relation at exactly one recursive
				// position; other positions read the full relations
				// (which already include the delta).
				cc := sp.all[u.idx]
				d := delta[cc.lits[u.pos].pred]
				if d == nil || d.Len() == 0 {
					continue
				}
				if _, err := e.run(cc, u.pos, d, next[cc.headPred], e.work[cc.headPred]); err != nil {
					return err
				}
			}
		}
		delta = next
	}
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

// run evaluates cc against the current relations, the literal at
// deltaPos (-1 for none) reading deltaRel instead of its full relation.
// New head tuples are inserted into full; when deltaSink is non-nil they
// are also added there (seeding semi-naive). It returns the number of
// new tuples.
func (e *engine) run(cc *compiledClause, deltaPos int, deltaRel, deltaSink, full *relation.Relation) (int, error) {
	inserted := 0
	e.curClause = cc.srcText
	rn := runner{resolve: e.resolve, stats: &e.stats}
	rn.derive = func(cc *compiledClause, env []value.Value, head value.Tuple) error {
		if e.governed {
			// Amortized governance: consult the guard only when the
			// current grant is spent; in between, one decrement.
			if e.gslack == 0 {
				n, err := e.g.DerivationGrant(e.gused, cc.srcText)
				e.gused = 0
				if err != nil {
					return err
				}
				e.gslack = n
			}
			e.gslack--
			e.gused++
		}
		e.stats.Derivations++
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
			inserted++
			e.stats.Inserted++
			e.recordProvenance(cc, env, stored)
			if deltaSink != nil {
				deltaSink.Append(stored)
			}
		}
		return nil
	}
	err := rn.run(cc, deltaPos, deltaRel, 0, -1)
	if e.governed && e.gused > 0 {
		// Settle the outstanding amortized batch so the guard is exact at
		// clause boundaries. Without this, derivations run under the last
		// grant were never accounted: Usage underreported, and a guard
		// shared across runs (Enumerate builds a fresh engine per run, so
		// gused restarts at zero) could overshoot MaxDerivations by up to
		// one CheckInterval batch per run.
		e.g.Settle(e.gused)
		e.gused = 0
	}
	return inserted, err
}

// runner executes the join walk of one clause (iterator.go). There is
// exactly one per goroutine: the sequential engine builds one per clause
// run, and every parallel worker owns one bound to its private
// compiled-clause copies (the compiled scratch buffers are
// single-threaded by design). The walk is pure enumeration — each
// complete body instantiation hands the candidate head tuple (scratch;
// clone to retain) to the derive hook, which carries all mutable policy:
// governance, dedup, insertion. The resolve hook maps a compiled literal
// to the relation it reads, so the same walk serves full evaluation
// (engine state) and incremental maintenance (a view's relation maps).
type runner struct {
	resolve func(cl *compiledLit) (*relation.Relation, error)
	stats   *Stats
	derive  func(cc *compiledClause, env []value.Value, head value.Tuple) error
}
