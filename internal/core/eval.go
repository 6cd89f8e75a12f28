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
	// NoStreaming disables the streaming get-next executor: clause
	// bodies are evaluated by the legacy recursive walk. The model,
	// insertion order, and statistics are identical either way (the
	// executor only changes how each body instantiation is enumerated
	// and which environment slots are materialized); this is the escape
	// hatch and the ablation baseline. Trace forces the legacy walk —
	// provenance capture snapshots the whole environment, which the
	// executor's projection pushdown deliberately leaves sparse.
	NoStreaming bool
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
	// Partitions is the hash-partition fan-out of partition-parallel
	// evaluation: partitionable delta units (see plan.go choosePartition)
	// radix-partition their delta and probe relation by the join key into
	// this many partitions, each evaluated as one task with
	// partition-local probe indexes. Zero resolves to the worker count
	// when that exceeds 1, else 1; 1 disables partitioning (the
	// differential twin); values above maxPartitions clamp. Answer sets,
	// ID assignment, and fingerprints are byte-identical at every
	// setting. Partitioning applies only with the planner on (delta-first
	// variants) and only to delta rounds that clear minParallelDelta;
	// Naive and Trace runs ignore it.
	Partitions int
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

// streaming reports whether the get-next executor is active; Trace
// forces the legacy walk (provenance reads the whole environment).
func (o Options) streaming() bool { return !o.NoStreaming && !o.Trace }

// StreamingEnabled reports whether these Options run the streaming
// get-next executor; exported for callers that mirror the choice into
// derived configurations (incremental CompileOptions, CLI renderers).
func (o Options) StreamingEnabled() bool { return o.streaming() }

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
	// The parallel fixpoint also hosts partition-parallel evaluation, so
	// it is entered whenever either axis exceeds 1: partitions with a
	// single worker still prune index builds (measurable on one core).
	if (e.workers() > 1 || e.partitions() > 1) && !e.opts.Trace {
		return e.parallelFixpoint(c, sp)
	}
	return e.seminaiveFixpoint(c, sp)
}

// maxAutoParallelism caps the GOMAXPROCS-derived default worker count:
// beyond it the single-threaded merge phase dominates and extra
// workers only contend. Explicit Parallelism settings are not clamped.
const maxAutoParallelism = 8

// maxPartitions caps the partition fan-out: each partitioned unit pays
// one task and one position list per partition and round, so an
// absurd setting would drown the join work in bookkeeping.
const maxPartitions = 64

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

// EffectivePartitions resolves the partition fan-out these Options run
// with (≥ 1): unset follows the worker count, so multi-core runs
// partition by default and sequential runs stay unpartitioned unless
// asked; explicit values clamp to maxPartitions.
func (o Options) EffectivePartitions() int {
	n := o.Partitions
	if n == 0 {
		if w := o.EffectiveParallelism(); w > 1 {
			n = w
		} else {
			n = 1
		}
	}
	if n > maxPartitions {
		n = maxPartitions
	}
	if n < 1 {
		n = 1
	}
	return n
}

// workers resolves the effective parallelism (≥ 1).
func (e *engine) workers() int { return e.opts.EffectiveParallelism() }

// partitions resolves the effective partition fan-out (≥ 1).
func (e *engine) partitions() int { return e.opts.EffectivePartitions() }

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
			n, err := e.evalClause(cc, -1, nil, e.work[cc.headPred])
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
			if _, err := e.evalClause(cc, -1, nil, e.work[cc.headPred]); err != nil {
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
		if _, err := e.evalClause(cc, -1, delta[cc.headPred], e.work[cc.headPred]); err != nil {
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
				if _, err := e.evalClauseDelta(cc, u.pos, d, next[cc.headPred], e.work[cc.headPred]); err != nil {
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

// evalClause evaluates cc against the current relations. New head tuples
// are inserted into full; when deltaSink is non-nil they are also added
// there (seeding semi-naive). It returns the number of new tuples.
func (e *engine) evalClause(cc *compiledClause, _ int, deltaSink, full *relation.Relation) (int, error) {
	return e.run(cc, -1, nil, deltaSink, full)
}

// evalClauseDelta is one semi-naive pass: the literal at deltaPos reads
// deltaRel instead of its full relation.
func (e *engine) evalClauseDelta(cc *compiledClause, deltaPos int, deltaRel, deltaSink, full *relation.Relation) (int, error) {
	return e.run(cc, deltaPos, deltaRel, deltaSink, full)
}

func (e *engine) run(cc *compiledClause, deltaPos int, deltaRel, deltaSink, full *relation.Relation) (int, error) {
	inserted := 0
	e.curClause = cc.srcText
	rn := runner{resolve: e.resolve, stats: &e.stats, stream: e.opts.streaming()}
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

// runner executes the join walk of one clause. There is exactly one per
// goroutine: the sequential engine builds one per clause run, and every
// parallel worker owns one bound to its private compiled-clause copies
// (the compiled scratch buffers are single-threaded by design). The
// walk is pure enumeration — each complete body instantiation hands the
// candidate head tuple (scratch; clone to retain) to the derive hook,
// which carries all mutable policy: governance, dedup, insertion. The
// resolve hook maps a compiled literal to the relation it reads, so the
// same walk serves full evaluation (engine state) and incremental
// maintenance (a view's relation maps).
type runner struct {
	resolve func(cl *compiledLit) (*relation.Relation, error)
	stats   *Stats
	derive  func(cc *compiledClause, env []value.Value, head value.Tuple) error
	// stream selects the get-next executor (iterator.go) over the
	// legacy recursive walk below. Both enumerate instantiations in
	// the same order with the same statistics; Trace requires the
	// legacy walk (see Options.NoStreaming).
	stream bool
	// partRel, when non-nil, substitutes for the relation the literal
	// at depth partDepth reads — the partition-local probe relation of
	// a partitioned task (eval_parallel.go). partDepth is never 0 in a
	// partitioned task (depth 0 is the delta), so it cannot collide
	// with the delta substitution.
	partRel   *relation.Relation
	partDepth int
}

// run walks cc with the delta relation substituted at deltaPos (-1 for
// none). lo/hi restrict the depth-0 literal's enumeration range to
// [lo, hi) — the parallel shard bounds; hi = -1 means unrestricted.
func (rn *runner) run(cc *compiledClause, deltaPos int, deltaRel *relation.Relation, lo, hi int) error {
	env := make([]value.Value, cc.nslots)
	return rn.walk(cc, env, deltaPos, deltaRel, lo, hi)
}

// walk is run with a caller-provided environment, which may be
// pre-seeded (head-bound rederivation probes seed the head slots from a
// candidate tuple before walking the body). The env may be reused
// across walks without clearing: compilation guarantees every slot read
// was bound earlier in the same walk or by the seed.
func (rn *runner) walk(cc *compiledClause, env []value.Value, deltaPos int, deltaRel *relation.Relation, lo, hi int) error {
	if rn.stream {
		return rn.streamWalk(cc, env, deltaPos, deltaRel, lo, hi)
	}
	var rec func(depth int) error
	rec = func(depth int) error {
		if depth == len(cc.lits) {
			head := cc.headBuf
			for i, a := range cc.headArgs {
				if a.kind == argConst {
					head[i] = a.val
				} else {
					head[i] = env[a.slot]
				}
			}
			return rn.derive(cc, env, head)
		}
		cl := &cc.lits[depth]
		if cl.builtin != nil {
			return rn.stepBuiltin(cc, cl, env, depth, rec)
		}
		if cl.neg {
			return rn.stepNegated(cl, env, depth, rec)
		}
		rel, err := rn.resolve(cl)
		if err != nil {
			return err
		}
		if depth == deltaPos {
			rel = deltaRel
		} else if rn.partRel != nil && depth == rn.partDepth {
			rel = rn.partRel
		}
		if depth == 0 {
			return rn.stepScan(cl, rel, env, depth, lo, hi, rec)
		}
		return rn.stepScan(cl, rel, env, depth, 0, -1, rec)
	}
	return rec(0)
}

// stepScan matches a positive relational literal by probing the indexed
// columns and binding the rest. A non-negative hi restricts enumeration
// to the [lo, hi) slice of the scan (or of the probed index bucket) —
// the parallel evaluator's shard bounds.
func (rn *runner) stepScan(cl *compiledLit, rel *relation.Relation, env []value.Value, depth, lo, hi int, rec func(int) error) error {
	match := func(t value.Tuple) error {
		ok := true
		for pos, a := range cl.args {
			switch a.kind {
			case argBind:
				env[a.slot] = t[pos]
			case argCheck:
				if !t[pos].Equal(env[a.slot]) {
					ok = false
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			return nil
		}
		return rec(depth + 1)
	}
	if len(cl.probeCols) == 0 {
		// Scan streams block-at-a-time from disk-backed relations, so a
		// full scan never materializes the relation in memory.
		if hi < 0 {
			lo, hi = 0, rel.Len()
		}
		rn.stats.TuplesScanned += hi - lo
		var merr error
		rel.Scan(lo, hi, func(_ int, t value.Tuple) bool {
			merr = match(t)
			return merr == nil
		})
		return merr
	}
	key := cl.keyBuf
	for i, a := range cl.probeArgs {
		if a.kind == argConst {
			key[i] = a.val
		} else {
			key[i] = env[a.slot]
		}
	}
	// Iterate index positions directly to avoid materializing the
	// candidate slice. The positions slice is the index's own bucket
	// and must not be mutated; inserts during iteration may append to
	// it, but appended tuples are new head derivations of *other*
	// relations (a clause never inserts into a relation it scans in the
	// same instantiation path — recursive clauses read delta copies), so
	// a snapshot of the length keeps iteration well-defined.
	var one [1]int
	positions := probePositions(rel, cl, key, &one)
	n := len(positions)
	if hi >= 0 {
		positions, n = positions[lo:hi], hi-lo
	}
	rn.stats.TuplesScanned += n
	for i := 0; i < n; i++ {
		if err := match(rel.At(positions[i])); err != nil {
			return err
		}
	}
	return nil
}

// stepNegated checks a fully-bound negated relational literal.
func (rn *runner) stepNegated(cl *compiledLit, env []value.Value, depth int, rec func(int) error) error {
	rel, err := rn.resolve(cl)
	if err != nil {
		return err
	}
	t := make(value.Tuple, len(cl.args))
	for i, a := range cl.args {
		if a.kind == argConst {
			t[i] = a.val
		} else {
			t[i] = env[a.slot]
		}
	}
	if rel.Contains(t) {
		return nil
	}
	return rec(depth + 1)
}

// stepBuiltin evaluates an interpreted literal by enumerating the
// solutions of its relation under the current bindings.
func (rn *runner) stepBuiltin(cc *compiledClause, cl *compiledLit, env []value.Value, depth int, rec func(int) error) error {
	args, mask := cl.argsBuf, cl.maskBuf
	for i, a := range cl.args {
		switch a.kind {
		case argConst:
			args[i] = a.val
			mask[i] = true
		case argBound:
			args[i] = env[a.slot]
			mask[i] = true
		default:
			args[i] = value.Value{}
			mask[i] = false
		}
	}
	sols, err := cl.builtin.Solve(args, mask)
	if err != nil {
		return fmt.Errorf("clause %s: %w", cc.src.Source, err)
	}
	if cl.neg {
		if len(sols) == 0 {
			return rec(depth + 1)
		}
		return nil
	}
	for _, sol := range sols {
		ok := true
		for i, a := range cl.args {
			switch a.kind {
			case argBind:
				env[a.slot] = sol[i]
			case argCheck:
				if !sol[i].Equal(env[a.slot]) {
					ok = false
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		if err := rec(depth + 1); err != nil {
			return err
		}
	}
	return nil
}
