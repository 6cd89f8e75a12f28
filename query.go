package idlog

import (
	"context"
	"fmt"

	"idlog/internal/ast"
	"idlog/internal/core"
	"idlog/internal/guard"
	"idlog/internal/magic"
	"idlog/internal/parser"
)

// Query evaluates a single goal — a comma-separated body such as
// "emp(X, toys), X != joe" — against the program and db, returning one
// row per satisfying binding of the goal's variables, in the order the
// variables first appear. A ground goal returns one empty row when it
// holds and no rows otherwise.
//
// Query is what the CLI's interactive "?-" prompt runs; here it is
// exposed for programs.
func (p *Program) Query(db *Database, goal string, opts ...Option) (*QueryResult, error) {
	return p.QueryContext(context.Background(), db, goal, opts...)
}

// QueryContext is Query honoring ctx and the governance options: a
// malformed goal yields a CodeParseError, a tripped run returns the
// bindings found so far alongside the typed error, and engine panics
// surface as CodeInternal errors instead of killing the caller.
func (p *Program) QueryContext(ctx context.Context, db *Database, goal string, opts ...Option) (qr *QueryResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			qr, err = nil, guard.Errorf(guard.Internal, "query", "panic: %v", r)
		}
	}()
	pq, err := p.Prepare(goal)
	if err != nil {
		return nil, err
	}
	return pq.run(ctx, db, opts)
}

// Prepare parses and compiles the goal against the program once,
// returning a PreparedQuery whose Query/QueryContext skip goal parsing,
// wrapper compilation, and analysis on every call — and whose plan
// cache additionally skips planning when the same database
// snapshot is queried repeatedly. A malformed goal yields a typed
// CodeParseError, exactly as Query does.
//
// A PreparedQuery is immutable and safe for concurrent use (subject to
// the Database concurrency contract: freeze a database before sharing
// it across goroutines).
func (p *Program) Prepare(goal string) (*PreparedQuery, error) {
	wrapped, err := parser.Clause("query_wrapper_head :- " + goal + ".")
	if err != nil {
		return nil, guard.WrapErr(guard.ParseError, "query", err, fmt.Sprintf("goal %q", goal))
	}
	ansPred := "ans"
	for taken := true; taken; {
		taken = false
		for _, c := range p.pure.Clauses {
			if c.Head.Pred == ansPred {
				ansPred += "_"
				taken = true
			}
		}
	}
	vars := ast.ClauseVars(&ast.Clause{Head: &ast.Atom{Pred: "x"}, Body: wrapped.Body})
	head := &ast.Atom{Pred: ansPred}
	for _, v := range vars {
		head.Args = append(head.Args, v)
	}
	prog := &ast.Program{Clauses: append(append([]*ast.Clause{}, p.pure.Clauses...),
		&ast.Clause{Head: head, Body: wrapped.Body})}
	compiled, err := FromAST(prog)
	if err != nil {
		return nil, err
	}
	pq := &PreparedQuery{
		goal:     goal,
		compiled: compiled,
		vars:     vars,
		ansPred:  ansPred,
		cache:    core.NewPlanCache(0),
	}
	// Demand path: rewrite the wrapper program so evaluation
	// materializes only the goal's derivation cone. Inapplicable goals
	// (ID-literals or negation over derived predicates in the cone, or
	// nothing bound) fall back to the full program; so does any analysis
	// failure of the rewritten program (defensive — e.g. an
	// unstratifiable magic variant).
	if rw, merr := magic.Rewrite(compiled.info, ansPred); merr != nil {
		pq.magicErr = merr
	} else if mp, ferr := FromAST(rw.Program); ferr != nil {
		pq.magicErr = ferr
	} else {
		pq.magicProg, pq.rewrite = mp, rw
	}
	return pq, nil
}

// PreparedQuery is a goal compiled once by Program.Prepare for repeated
// execution. Each instance owns a plan cache shared by its runs: the
// first evaluation against a database snapshot compiles and publishes
// the component plans, subsequent evaluations against the same snapshot
// (same Database version — any Apply/Add/SetRelation invalidates)
// reuse them.
type PreparedQuery struct {
	goal     string
	compiled *Program
	vars     []ast.Var
	ansPred  string
	cache    *core.PlanCache
	// magicProg is the magic-sets rewriting of the wrapper program, nil
	// when the rewrite was inapplicable (magicErr says why). Both
	// programs share cache: plan-cache keys include the analysis
	// identity, so the rewritten plans — which embed the goal's
	// adornment — are cached separately from the full program's.
	magicProg *Program
	rewrite   *magic.Rewritten
	magicErr  error
}

// Goal returns the goal text the query was prepared from.
func (pq *PreparedQuery) Goal() string { return pq.goal }

// Query executes the prepared goal against db; see Program.Query for
// the result contract.
func (pq *PreparedQuery) Query(db *Database, opts ...Option) (*QueryResult, error) {
	return pq.QueryContext(context.Background(), db, opts...)
}

// QueryContext is Query honoring ctx and the governance options; see
// Program.QueryContext for the degradation contract.
func (pq *PreparedQuery) QueryContext(ctx context.Context, db *Database, opts ...Option) (qr *QueryResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			qr, err = nil, guard.Errorf(guard.Internal, "query", "panic: %v", r)
		}
	}()
	return pq.run(ctx, db, opts)
}

// CacheStats reports the prepared query's plan-cache counters.
func (pq *PreparedQuery) CacheStats() (hits, misses uint64) { return pq.cache.Stats() }

// UsesMagic reports whether the goal admitted the magic-sets demand
// rewrite; when false, runs always evaluate the full program (see
// WithMagic for the fallback matrix).
func (pq *PreparedQuery) UsesMagic() bool { return pq.magicProg != nil }

// selectProgram picks the program a run with the given options
// evaluates: the magic rewriting when available and not disabled
// (WithMagic(false)), and not tracing — traces must explain tuples in
// terms of the source rules.
func (pq *PreparedQuery) selectProgram(opts []Option) (prog *Program, usedMagic bool) {
	c := &config{}
	for _, o := range opts {
		o(c)
	}
	if pq.magicProg != nil && !c.noMagic && !c.eval.Trace {
		return pq.magicProg, true
	}
	return pq.compiled, false
}

// ExplainPlan renders the join plans the goal's runs would use,
// against the program that would actually execute: when the demand
// rewrite is active the rewritten (adorned + magic) rules are shown,
// with a header naming the goal's adornment; otherwise the full
// wrapper program, with the fallback reason when the rewrite was
// inapplicable.
func (pq *PreparedQuery) ExplainPlan(db *Database, opts ...Option) (string, error) {
	return pq.ExplainPlanContext(context.Background(), db, opts...)
}

// ExplainPlanContext is ExplainPlan honoring ctx.
func (pq *PreparedQuery) ExplainPlanContext(ctx context.Context, db *Database, opts ...Option) (string, error) {
	prog, usedMagic := pq.selectProgram(opts)
	plan, err := prog.ExplainPlanContext(ctx, db, opts...)
	if err != nil {
		return "", err
	}
	switch {
	case usedMagic:
		return "demand: magic-sets rewrite active (" + pq.rewrite.Summary() + ")\n" + plan, nil
	case pq.magicProg != nil:
		return "demand: magic-sets rewrite available but disabled\n" + plan, nil
	default:
		return "demand: full evaluation (" + pq.magicErr.Error() + ")\n" + plan, nil
	}
}

// run evaluates the pre-compiled wrapper program — or its magic-sets
// rewriting when the demand path is active — with the plan cache armed
// (appended last so it cannot be overridden by caller options).
func (pq *PreparedQuery) run(ctx context.Context, db *Database, opts []Option) (*QueryResult, error) {
	opts = append(append([]Option{}, opts...), withPlanCache(pq.cache))
	prog, usedMagic := pq.selectProgram(opts)
	res, err := prog.EvalContext(ctx, db, opts...)
	if err != nil {
		// A governed trip still carries the bindings derived so far.
		if res != nil && res.Incomplete {
			return pq.result(res, usedMagic), err
		}
		return nil, err
	}
	return pq.result(res, usedMagic), nil
}

func (pq *PreparedQuery) result(res *Result, usedMagic bool) *QueryResult {
	qr := buildQueryResult(pq.vars, res, pq.ansPred)
	qr.Stats = res.Stats
	qr.UsedMagic = usedMagic
	return qr
}

// buildQueryResult projects the answer predicate's relation onto a
// QueryResult. A missing relation (possible on partial models) yields
// the empty result rather than a nil dereference.
func buildQueryResult(vars []ast.Var, res *Result, ansPred string) *QueryResult {
	qr := &QueryResult{}
	for _, v := range vars {
		qr.Vars = append(qr.Vars, v.Name)
	}
	rel := res.Relation(ansPred)
	if rel == nil {
		return qr
	}
	for _, t := range rel.Sorted() {
		qr.Rows = append(qr.Rows, t)
	}
	return qr
}

// QueryResult holds the bindings produced by Program.Query.
type QueryResult struct {
	// Vars names the goal's variables, in order of first occurrence;
	// each row's columns align with it.
	Vars []string
	// Rows are the satisfying bindings, canonically sorted.
	Rows []Tuple
	// Stats carries the run's evaluation counters; with the demand
	// rewrite active they cover only the goal's derivation cone.
	Stats Stats
	// UsedMagic reports whether this run evaluated the magic-sets
	// rewriting of the program rather than the full program.
	UsedMagic bool
}

// Holds reports whether the goal was satisfiable (at least one row, or
// — for ground goals — the single empty binding).
func (q *QueryResult) Holds() bool { return len(q.Rows) > 0 }

// AddFactsText parses ground facts in program syntax ("emp(joe, toys).")
// and adds them to db as they are read. Rules and non-ground facts are
// rejected with a typed error; the facts before the offending one have
// been added by then.
func AddFactsText(db *Database, src string) error {
	var addErr error
	err := parser.FactsString(src, func(pred string, t Tuple) error {
		addErr = db.Add(pred, t)
		return addErr
	})
	switch {
	case addErr != nil:
		return fmt.Errorf("idlog: facts: %w", addErr)
	case err != nil:
		return guard.WrapErr(guard.ParseError, "facts", err, "")
	}
	return nil
}
