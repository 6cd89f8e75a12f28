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
// reproducible pseudo-random run, the sampling mode. A member's tid
// depends on the seed, its relation, the grouping columns and its own
// values only, so the run is the same in every process and for any
// order of the input facts.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.eval.Oracle = RandomOracle(seed) }
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

// WithParallelism evaluates each stratum's fixpoint rounds on up to n
// worker goroutines. 0 or 1 = sequential, the default: every round
// runs on the calling goroutine and no worker pool is built. n > 1 is
// an upper bound: seed rounds and non-recursive components fan out
// over the workers, while delta rounds of a recursive component whose
// delta holds fewer than 4096 tuples run on the calling goroutine and
// insert in place, because fanning them out costs more than their join
// work. Answers, ID assignment, insertion order and every Stats count
// are identical at every n: workers only read round-start state, and
// their derivations are inserted in a fixed order, so nothing depends
// on scheduling. Budgets trip at the same exact boundary at every n;
// cancellation is honored at the next guard checkpoint. Tracing
// (WithTrace) forces sequential evaluation.
func WithParallelism(n int) Option {
	return func(c *config) { c.eval.Parallelism = n }
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
// to the computed model. A traced run uses the planned body order and
// the plan cache like any other run, and lists each derivation's body
// facts in the analysis order. It evaluates sequentially, over the
// source rules (no magic-sets rewrite): which derivation comes first
// then does not depend on worker scheduling, and every tree is stated
// in terms of the program as written.
func WithTrace() Option {
	return func(c *config) { c.eval.Trace = true }
}

// withFault arms a deterministic fault injection (chaos tests only).
func withFault(f guard.Fault) Option {
	return func(c *config) { c.fault = &f }
}
