// Package idlog is a deductive database engine for IDLOG — the
// non-deterministic deductive database language of Yeh-Heng Sheng
// (SIGMOD 1991) that extends DATALOG with negation by tuple-identifiers.
//
// An IDLOG program may reference, besides an ordinary predicate p, its
// ID-versions p[s]: relations in which every tuple carries a
// tuple-identifier (tid) unique within its sub-relation grouped by the
// attribute set s. Which tuple gets which tid is chosen by an Oracle,
// and that choice is the language's single source of non-determinism:
// a query denotes the set of answers obtainable over all choices.
//
// The flagship application is sampling queries (§3.3 of the paper):
//
//	prog, _ := idlog.Parse(`
//	    select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.
//	`)
//	res, _ := prog.Eval(db, idlog.WithSeed(42))
//	// res.Relation("select_two_emp") holds two employees per department.
//
// The engine also evaluates DATALOG^C (DATALOG with the choice operator
// of Krishnamurthy & Naqvi) by translating choice literals to IDLOG
// (Theorem 2), optimizes DATALOG programs by rewriting existential
// arguments into ID-literals (§4), and can enumerate the full answer set
// of a non-deterministic query on small inputs.
//
// # Concurrency
//
// A compiled *Program is immutable and safe for concurrent use. A
// *Database is single-goroutine while mutable; calling Database.Freeze
// makes it immutable and safe to share across any number of concurrent
// Eval/Enumerate/Query/Sample calls (lazy secondary indexes are then
// built once under a lock and published atomically). Database.Thaw
// returns a fresh mutable copy for deriving the next snapshot. This
// freeze/thaw contract is what cmd/idlogd builds on to serve many
// queries over one shared program and database.
package idlog

import (
	"context"
	"fmt"
	"io"
	"sort"

	"idlog/internal/adorn"
	"idlog/internal/analysis"
	"idlog/internal/ast"
	"idlog/internal/choice"
	"idlog/internal/core"
	"idlog/internal/guard"
	"idlog/internal/parser"
	"idlog/internal/relation"
	"idlog/internal/sampling"
	"idlog/internal/storage"
	"idlog/internal/value"
)

// Re-exported foundation types. These aliases make the public API
// self-contained without duplicating the implementations.
type (
	// Database holds the input (EDB) relations. Mutable databases are
	// single-goroutine; Freeze makes one immutable and shareable by
	// concurrent evaluations, Thaw copies it back into a mutable one.
	Database = core.Database
	// Result is one computed perfect model with its statistics.
	Result = core.Result
	// Stats carries evaluation counters (derivations, scans, ...).
	Stats = core.Stats
	// Answer is one member of a non-deterministic query's answer set.
	Answer = core.Answer
	// Relation is a set of tuples.
	Relation = relation.Relation
	// Oracle chooses ID-functions; see SortedOracle and RandomOracle.
	Oracle = relation.Oracle
	// Value is a two-sorted constant.
	Value = value.Value
	// Tuple is a sequence of values.
	Tuple = value.Tuple
	// Error is the engine's typed error: every governance failure
	// (cancellation, deadline, budget), program error, and recovered
	// panic reaching the public API is an *Error. Match with
	// errors.As; the underlying cause (context.Canceled, ...) stays
	// reachable through errors.Is.
	Error = guard.Error
	// ErrorCode classifies an Error; see the Code constants.
	ErrorCode = guard.Code
)

// Error codes carried by *Error, for programmatic handling.
const (
	// CodeCanceled: the caller's context was canceled mid-run.
	CodeCanceled = guard.Canceled
	// CodeDeadlineExceeded: a context deadline or WithTimeout budget
	// expired.
	CodeDeadlineExceeded = guard.DeadlineExceeded
	// CodeResourceExhausted: a derivation, tuple, or enumeration-run
	// budget was spent.
	CodeResourceExhausted = guard.ResourceExhausted
	// CodeParseError: the program or goal text does not parse.
	CodeParseError = guard.ParseError
	// CodeStratificationError: the program is not valid stratified
	// IDLOG (negation/ID cycles, choice misuse, arity conflicts).
	CodeStratificationError = guard.StratificationError
	// CodeInternal: an engine panic was recovered and converted,
	// carrying the stratum and clause under evaluation.
	CodeInternal = guard.Internal
)

// NewDatabase returns an empty database.
func NewDatabase() *Database { return core.NewDatabase() }

// Str returns the uninterpreted (sort-u) constant named s.
func Str(s string) Value { return value.Str(s) }

// Int returns the interpreted (sort-i) constant n.
func Int(n int64) Value { return value.Int(n) }

// Strs builds a tuple of u-constants.
func Strs(names ...string) Tuple { return value.Strs(names...) }

// Ints builds a tuple of i-constants.
func Ints(ns ...int64) Tuple { return value.Ints(ns...) }

// SortedOracle returns the deterministic canonical oracle: tids follow
// the sorted tuple order, so evaluation is reproducible and
// deterministic.
func SortedOracle() Oracle { return relation.SortedOracle{} }

// RandomOracle returns the seeded pseudo-random oracle behind sampling
// queries; equal seeds give equal runs.
func RandomOracle(seed uint64) Oracle { return relation.RandomOracle{Seed: seed} }

// Program is a parsed and checked program, ready for evaluation.
type Program struct {
	src  *ast.Program // as written (may contain choice literals)
	pure *ast.Program // choice-free form actually evaluated
	info *analysis.Info
}

// Parse parses, validates and plans an IDLOG or DATALOG^C program.
// Programs containing choice literals are translated to pure IDLOG via
// the Theorem-2 construction before analysis.
func Parse(src string) (*Program, error) {
	prog, err := parseText(src)
	if err != nil {
		return nil, err
	}
	return FromAST(prog)
}

// FromAST wraps an already-built AST program (used by generators).
// Structural errors — failed choice translation, stratification or
// arity conflicts — carry CodeStratificationError.
func FromAST(prog *ast.Program) (*Program, error) {
	p := &Program{src: prog, pure: prog}
	if prog.HasChoice() {
		translated, err := choice.Translate(prog)
		if err != nil {
			return nil, guard.WrapErr(guard.StratificationError, "parse", err, "choice translation failed")
		}
		p.pure = translated
	}
	info, err := analysis.Analyze(p.pure)
	if err != nil {
		return nil, guard.WrapErr(guard.StratificationError, "parse", err, "invalid program")
	}
	p.info = info
	return p, nil
}

// String renders the program as evaluated (after any choice
// translation).
func (p *Program) String() string { return p.pure.String() }

// Source renders the program as written.
func (p *Program) Source() string { return p.src.String() }

// AST returns the (choice-free) AST; callers must not mutate it.
func (p *Program) AST() *ast.Program { return p.pure }

// Strata reports the number of evaluation strata.
func (p *Program) Strata() int { return len(p.info.Strata) }

// InputPredicates returns the program's input (EDB) predicate names,
// sorted.
func (p *Program) InputPredicates() []string {
	var out []string
	for name := range p.info.EDB {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// OutputPredicates returns the predicates defined by the program,
// sorted.
func (p *Program) OutputPredicates() []string {
	var out []string
	for name := range p.info.IDB {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Eval computes one perfect model of the program over db. With no
// options the run is deterministic (SortedOracle); use WithSeed or
// WithOracle for non-deterministic runs.
//
// Under governance (EvalContext, WithTimeout, WithMaxTuples,
// WithMaxDerivations) a tripped run returns BOTH a partial *Result —
// marked Incomplete, holding every tuple derived so far (a sound
// prefix of the model) — and a typed *Error saying why.
func (p *Program) Eval(db *Database, opts ...Option) (*Result, error) {
	return p.EvalContext(context.Background(), db, opts...)
}

// EvalContext is Eval honoring ctx: cancellation and deadlines are
// observed at stratum, fixpoint-round, and derivation-batch
// boundaries (within guard.CheckInterval derivations).
func (p *Program) EvalContext(ctx context.Context, db *Database, opts ...Option) (*Result, error) {
	cfg := buildConfig(ctx, opts)
	db, err := engineTestDB(db)
	if err != nil {
		return nil, err
	}
	return core.Eval(p.info, db, cfg.eval)
}

// Enumerate computes the full answer set of the query given by the
// output predicates preds: one Answer per distinct combination of their
// relations across all ID-function choices. Exponential; use on small
// inputs (the WithMaxRuns option bounds the walk).
//
// A walk cut short — run budget, timeout, cancellation — returns the
// answers found so far alongside a typed *Error.
func (p *Program) Enumerate(db *Database, preds []string, opts ...Option) ([]*Answer, error) {
	return p.EnumerateContext(context.Background(), db, preds, opts...)
}

// EnumerateContext is Enumerate honoring ctx. The run budgets and the
// wall clock govern the walk as a whole, not each run.
func (p *Program) EnumerateContext(ctx context.Context, db *Database, preds []string, opts ...Option) ([]*Answer, error) {
	cfg := buildConfig(ctx, opts)
	db, dberr := engineTestDB(db)
	if dberr != nil {
		return nil, dberr
	}
	answers, err := core.Enumerate(p.info, db, preds, core.EnumerateOptions{
		MaxRuns: cfg.maxRuns,
		Eval:    cfg.eval,
	})
	return answers, wrapEnumerateErr(err)
}

// wrapEnumerateErr lifts the enumeration budget error into the typed
// taxonomy; guard errors pass through already typed.
func wrapEnumerateErr(err error) error {
	if budget, ok := err.(*core.ErrEnumerationBudget); ok {
		return guard.WrapErr(guard.ResourceExhausted, "enumerate", budget, "run budget spent")
	}
	return err
}

// ExplainPlan renders the join plans the engine would use for an
// evaluation of the program over db under the same options: per stratum,
// component and clause, the chosen body order with access paths (scan,
// probe with columns, delta scan, filter, compute) and estimated
// cardinalities, plus the delta-first variants of recursive clauses. It
// evaluates the program once and renders the plans that run compiled,
// with the cardinality snapshot each component was planned on; the
// computed model is discarded.
func (p *Program) ExplainPlan(db *Database, opts ...Option) (string, error) {
	return p.ExplainPlanContext(context.Background(), db, opts...)
}

// ExplainPlanContext is ExplainPlan honoring ctx.
func (p *Program) ExplainPlanContext(ctx context.Context, db *Database, opts ...Option) (string, error) {
	cfg := buildConfig(ctx, opts)
	return core.ExplainPlan(p.info, db, cfg.eval)
}

// Optimize applies the §4 optimization strategy w.r.t. the output
// predicate q: the RBK88 adornment algorithm identifies ∀-existential
// arguments, projections are pushed through derived predicates, and
// input-predicate literals with existential positions are replaced by
// tid-0 ID-literals (∃-existential rewriting). The result is a new,
// q-equivalent program.
func (p *Program) Optimize(q string) (*Program, error) {
	opt, err := adorn.Optimize(p.pure, q)
	if err != nil {
		return nil, err
	}
	return FromAST(opt)
}

// SampleSpec describes a sampling query: choose K tuples from every
// group of Relation (grouped by the 1-based columns GroupBy; empty
// means one global group).
type SampleSpec struct {
	Relation string
	Arity    int
	GroupBy  []int
	K        int
}

// Sample runs the paper's sampling query "select K tuples from every
// group" (§3.3) against db under the given seed and returns the sample.
func Sample(spec SampleSpec, db *Database, seed uint64) (*Relation, error) {
	return SampleContext(context.Background(), spec, db, seed)
}

// SampleContext is Sample honoring ctx and the governance options
// (WithTimeout, WithMaxTuples, WithMaxDerivations).
func SampleContext(ctx context.Context, spec SampleSpec, db *Database, seed uint64, opts ...Option) (*Relation, error) {
	cols := make([]int, len(spec.GroupBy))
	for i, c := range spec.GroupBy {
		cols[i] = c - 1
	}
	s := sampling.Spec{Relation: spec.Relation, Arity: spec.Arity, GroupCols: cols, K: spec.K}
	cfg := buildConfig(ctx, opts)
	db, err := engineTestDB(db)
	if err != nil {
		return nil, err
	}
	rel, _, err := sampling.SampleWith(s, db, seed, cfg.eval)
	return rel, err
}

// SampleProgram returns the IDLOG program implementing the sampling
// query, for inspection.
func SampleProgram(spec SampleSpec) (*Program, error) {
	cols := make([]int, len(spec.GroupBy))
	for i, c := range spec.GroupBy {
		cols[i] = c - 1
	}
	prog, err := sampling.Program(sampling.Spec{
		Relation: spec.Relation, Arity: spec.Arity, GroupCols: cols, K: spec.K,
	})
	if err != nil {
		return nil, err
	}
	return FromAST(prog)
}

func parseText(src string) (*ast.Program, error) {
	prog, err := parser.Program(src)
	if err != nil {
		return nil, guard.WrapErr(guard.ParseError, "parse", err, "")
	}
	return prog, nil
}

// SaveSnapshot writes db to path in the binary snapshot format
// (atomically, via a temp file).
func SaveSnapshot(path string, db *Database) error { return storage.SaveFile(path, db) }

// LoadSnapshot reads a database snapshot from path.
func LoadSnapshot(path string) (*Database, error) { return storage.LoadFile(path) }

// WriteSnapshot serializes db to w in the binary snapshot format.
func WriteSnapshot(w io.Writer, db *Database) error { return storage.Write(w, db) }

// ReadSnapshot deserializes a database from r.
func ReadSnapshot(r io.Reader) (*Database, error) { return storage.Read(r) }

// CheckDeterministic evaluates the program under several different
// ID-function oracles (the given seeds plus the canonical sorted
// oracle) and reports whether the named output predicates received the
// identical relations every time. A true result certifies — for this
// input — that the query is deterministic even though the program uses
// non-deterministic constructs, the situation of the paper's
// optimization rewrites (§4) and of counting via tuple-identifiers.
func (p *Program) CheckDeterministic(db *Database, preds []string, seeds ...uint64) (bool, error) {
	if len(seeds) == 0 {
		seeds = []uint64{1, 2, 3, 4, 5, 6, 7}
	}
	var ref []string
	fingerprint := func(res *Result) ([]string, error) {
		out := make([]string, 0, len(preds))
		for _, q := range preds {
			r := res.Relation(q)
			if r == nil {
				return nil, fmt.Errorf("idlog: unknown predicate %s", q)
			}
			out = append(out, r.Fingerprint())
		}
		return out, nil
	}
	res, err := p.Eval(db)
	if err != nil {
		return false, err
	}
	if ref, err = fingerprint(res); err != nil {
		return false, err
	}
	for _, seed := range seeds {
		res, err := p.Eval(db, WithSeed(seed))
		if err != nil {
			return false, err
		}
		fp, err := fingerprint(res)
		if err != nil {
			return false, err
		}
		for i := range fp {
			if fp[i] != ref[i] {
				return false, nil
			}
		}
	}
	return true, nil
}
