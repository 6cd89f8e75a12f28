package idlog

import (
	"context"
	"time"

	"idlog/internal/core"
	"idlog/internal/guard"
)

// Option configures Eval, Enumerate, Query and their *Context variants.
type Option func(*config)

type config struct {
	eval    core.Options
	maxRuns int
	limits  guard.Limits
	fault   *guard.Fault
	noMagic bool
}

// buildConfig folds the options and arms the run's guard: one guard per
// public call, carrying ctx, the wall-clock timeout, and the tuple and
// derivation budgets. Enumerate passes the same config to every run of
// its walk, so the budgets govern the walk as a whole.
func buildConfig(ctx context.Context, opts []Option) *config {
	c := &config{}
	for _, o := range opts {
		o(c)
	}
	g := guard.New(ctx, c.limits)
	if c.fault != nil {
		g.Inject(*c.fault)
	}
	c.eval.Guard = g
	return c
}

// WithOracle selects the ID-function oracle for the run. The default is
// the deterministic SortedOracle.
func WithOracle(o Oracle) Option {
	return func(c *config) { c.eval.Oracle = o }
}

// WithSeed is shorthand for WithOracle(RandomOracle(seed)): a
// reproducible pseudo-random run, the sampling mode.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.eval.Oracle = RandomOracle(seed) }
}

// WithNaive disables semi-naive (delta) fixpoint evaluation; every
// round re-derives from the full relations. Exists for the E6 ablation.
func WithNaive() Option {
	return func(c *config) { c.eval.Naive = true }
}

// WithMaxDerivations aborts evaluation after n body instantiations; a
// safety valve for generated or untrusted programs. On exhaustion the
// partial model computed so far is returned alongside a
// CodeResourceExhausted error.
func WithMaxDerivations(n int) Option {
	return func(c *config) { c.limits.MaxDerivations = n }
}

// WithTimeout bounds the run's wall-clock time (Enumerate: the whole
// walk). It combines with any EvalContext deadline; the earlier wins.
// On expiry the partial model is returned alongside a
// CodeDeadlineExceeded error that matches
// errors.Is(err, context.DeadlineExceeded).
func WithTimeout(d time.Duration) Option {
	return func(c *config) { c.limits.Timeout = d }
}

// WithMaxTuples caps the number of tuples the run may materialize
// (derived tuples plus ID-relation rows) — a memory ceiling for
// untrusted programs, which can be made to compute any computable
// relation (Theorem 6). On exhaustion the partial model is returned
// alongside a CodeResourceExhausted error.
func WithMaxTuples(n int) Option {
	return func(c *config) { c.limits.MaxTuples = n }
}

// WithParallelism evaluates each stratum's fixpoint rounds on n
// worker goroutines. When unset (or 0) the worker count defaults to
// runtime.GOMAXPROCS(0) clamped to 8, so multi-core machines evaluate
// in parallel out of the box; pass 1 to force the sequential engine.
// Answers are byte-identical to the sequential engine at every n:
// workers only read round-start state and a deterministic ordered
// merge performs every insertion, so tuple sets and ID assignment do
// not depend on n. Budgets and cancellation are honored as hard
// ceilings (the sequential engine additionally trips budgets at the
// exact boundary). Tracing (WithTrace) forces sequential evaluation.
// n is an upper bound: delta rounds of a recursive component whose
// delta holds fewer than 4096 tuples run inline on the calling
// goroutine, because fanning them out costs more than their join work.
func WithParallelism(n int) Option {
	return func(c *config) { c.eval.Parallelism = n }
}

// DefaultParallelism reports the worker count used when WithParallelism
// is unset: runtime.GOMAXPROCS(0) clamped to 8. Exposed so embedders
// (idlogd) can resolve and clamp the effective value themselves.
func DefaultParallelism() int { return core.DefaultParallelism() }

// WithPartitions sets the hash-partition fan-out of partition-parallel
// evaluation: recursive delta passes whose plan carries a partitionable
// join key (see ExplainPlan's "partition:" lines) radix-partition the
// delta and the probed relation on that key into n partitions, each
// evaluated as an independent task against partition-local probe
// indexes — no shared-index contention, and partitions no delta tuple
// reaches never build an index at all. When unset (or 0) the fan-out
// follows the worker count; WithPartitions(1) disables partitioning
// and is the differential twin. Answer sets, ID assignment, and
// fingerprints are byte-identical at every setting (tuple insertion
// order may differ between fan-outs). Clause bodies with ID-literals
// or negation, and runs with the planner off, fall back to the
// range-sharded parallel path. n is an upper bound: delta rounds under
// WithParallelism's 4096-tuple gate run unpartitioned.
func WithPartitions(n int) Option {
	return func(c *config) { c.eval.Partitions = n }
}

// WithPlanner enables (the default) or disables the cost-based join
// planner: with it on, clause bodies are reordered by estimated
// selectivity at each component's start and semi-naive delta passes
// enumerate the delta literal first. The computed model is identical
// either way — the planner only picks among safety-equivalent orders —
// so WithPlanner(false) is the performance-ablation and escape hatch.
// Traced runs (WithTrace) run with the planner off.
func WithPlanner(on bool) Option {
	return func(c *config) { c.eval.NoPlanner = !on }
}

// WithMagic enables (the default) or disables the magic-sets demand
// rewrite for goal queries: with it on, Prepare/Query goals with bound
// arguments evaluate a goal-directed rewriting of the program that
// materializes only the query's derivation cone; with it off (or when
// the rewrite is inapplicable — goals reading through ID-literals or
// negation over derived predicates, or binding nothing) the full
// program is evaluated. Answer sets are identical either way, so
// WithMagic(false) is the performance-ablation and escape hatch.
// Traced runs (WithTrace) evaluate the full program.
func WithMagic(on bool) Option {
	return func(c *config) { c.noMagic = !on }
}

// withPlanCache arms the evaluation's plan cache (prepared queries).
func withPlanCache(pc *core.PlanCache) Option {
	return func(c *config) { c.eval.PlanCache = pc }
}

// WithMaxRuns bounds the number of evaluation runs Enumerate may
// perform (default 100000).
func WithMaxRuns(n int) Option {
	return func(c *config) { c.maxRuns = n }
}

// WithTrace records the first derivation of every tuple so that
// Result.Explain can print derivation trees. Costs memory proportional
// to the computed model. A traced run evaluates sequentially, in the
// analysis body order (planner off), over the source rules (no
// magic-sets rewrite): which derivation comes first then depends on
// neither relation cardinalities nor worker scheduling, and every tree
// is stated in terms of the program as written.
func WithTrace() Option {
	return func(c *config) { c.eval.Trace = true }
}

// withFault arms a deterministic fault injection (chaos tests only).
func withFault(f guard.Fault) Option {
	return func(c *config) { c.fault = &f }
}
