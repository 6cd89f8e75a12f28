package idlog

import (
	"context"
	"time"

	"idlog/internal/core"
	"idlog/internal/fault"
	"idlog/internal/guard"
)

// Option configures Eval, Enumerate, Query and their *Context variants.
type Option func(*config)

type config struct {
	eval    core.Options
	maxRuns int
	limits  guard.Limits
	faults  *fault.Registry
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
	g.SetFaults(c.faults)
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
// facts in the analysis order. Program.Eval evaluates the rules as
// written, so its trees are stated in the source program; a prepared
// query picks its program (magic rewrite or not) whatever the options,
// and its QueryResult carries no trees.
func WithTrace() Option {
	return func(c *config) { c.eval.Trace = true }
}

// withFaults makes the run's guard consult the engine's fault points
// (fault.CoreDerive, fault.CoreStratum, fault.RelationOracle) in r.
func withFaults(r *fault.Registry) Option {
	return func(c *config) { c.faults = r }
}
