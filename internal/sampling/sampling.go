// Package sampling provides the paper's flagship application (§1, §3.3):
// sampling queries — non-deterministic queries that choose a fixed
// number of samples from every group of a relation — expressed as IDLOG
// programs of the form
//
//	sample(X1, ..., Xn) :- r[s](X1, ..., Xn, T), T < k.
//
// Program generates that program and SampleWith runs it through the
// engine. The package's tests cross-check the engine against the same
// result computed straight from the ID-relation machinery and against
// the sampling-query specification: the sample is a subset of the base
// relation containing exactly min(k, |group|) tuples from every group.
package sampling

import (
	"fmt"

	"idlog/internal/analysis"
	"idlog/internal/ast"
	"idlog/internal/core"
	"idlog/internal/relation"
)

// Spec describes a sampling query.
type Spec struct {
	// Relation is the base (input) predicate name.
	Relation string
	// Arity is the base predicate's arity.
	Arity int
	// GroupCols are the 0-based grouping columns (empty = sample from
	// the whole relation).
	GroupCols []int
	// K is the number of samples per group.
	K int
	// Output is the head predicate name (default "sample").
	Output string
}

func (s Spec) output() string {
	if s.Output == "" {
		return "sample"
	}
	return s.Output
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Relation == "" || s.Arity <= 0 {
		return fmt.Errorf("sampling: relation name and positive arity required")
	}
	if s.K <= 0 {
		return fmt.Errorf("sampling: K must be positive, got %d", s.K)
	}
	for _, c := range s.GroupCols {
		if c < 0 || c >= s.Arity {
			return fmt.Errorf("sampling: group column %d out of range for arity %d", c, s.Arity)
		}
	}
	return nil
}

// Program generates the IDLOG sampling program for the spec:
//
//	out(V1, ..., Vn) :- r[s](V1, ..., Vn, T), T < k.
//
// For K = 1 the comparison specializes to T = 0, matching the paper's
// one-sample examples (Example 4).
func Program(s Spec) (*ast.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	vars := make([]ast.Term, s.Arity)
	for i := range vars {
		vars[i] = ast.V(fmt.Sprintf("V%d", i+1))
	}
	idArgs := append(append([]ast.Term{}, vars...), ast.V("T"))
	group := append([]int{}, s.GroupCols...)
	if group == nil {
		group = []int{}
	}
	body := []*ast.Literal{
		{Atom: &ast.Atom{Pred: s.Relation, IsID: true, Group: group, Args: idArgs}},
	}
	if s.K == 1 {
		body = append(body, &ast.Literal{Atom: &ast.Atom{Pred: "eq", Args: []ast.Term{ast.V("T"), ast.N(0)}}})
	} else {
		body = append(body, &ast.Literal{Atom: &ast.Atom{Pred: "lt", Args: []ast.Term{ast.V("T"), ast.N(int64(s.K))}}})
	}
	return &ast.Program{Clauses: []*ast.Clause{{
		Head: &ast.Atom{Pred: s.output(), Args: vars},
		Body: body,
	}}}, nil
}

// SampleWith runs the sampling program against db with a seeded random
// oracle under caller-supplied evaluation options — in particular a
// guard governing the run (opts.Oracle is overridden by the seeded
// oracle) — and returns the sample relation together with the run
// result. A tripped run propagates the partial result with its typed
// error.
func SampleWith(s Spec, db *core.Database, seed uint64, opts core.Options) (*relation.Relation, *core.Result, error) {
	prog, err := Program(s)
	if err != nil {
		return nil, nil, err
	}
	info, err := analysis.Analyze(prog)
	if err != nil {
		return nil, nil, err
	}
	opts.Oracle = relation.RandomOracle{Seed: seed}
	res, err := core.Eval(info, db, opts)
	if err != nil {
		return nil, res, err
	}
	return res.Relation(s.output()), res, nil
}
