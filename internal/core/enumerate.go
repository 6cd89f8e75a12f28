package core

import (
	"fmt"
	"sort"
	"strings"

	"idlog/internal/analysis"
	"idlog/internal/relation"
)

// Answer is one element of a non-deterministic query's answer set: the
// output relations computed by one perfect model (§3.1: the query maps
// the input database to the set {q^I : I ∈ PERF}).
type Answer struct {
	// Relations maps each requested output predicate to its relation in
	// this perfect model.
	Relations map[string]*relation.Relation
}

// Fingerprint canonically identifies the answer (over the requested
// predicates only).
func (a *Answer) Fingerprint() string {
	names := make([]string, 0, len(a.Relations))
	for n := range a.Relations {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + "=" + a.Relations[n].Fingerprint()
	}
	return strings.Join(parts, ";")
}

// EnumerateOptions bounds the enumeration walk.
type EnumerateOptions struct {
	// MaxRuns caps the number of evaluation runs (not distinct answers);
	// 0 means the default of 100000. Enumeration is exponential in the
	// sizes of the ID-groups and is meant for small inputs.
	MaxRuns int
	// Eval configures each individual run. Its Oracle field is ignored
	// (the enumerator supplies its own).
	Eval Options
}

// ErrEnumerationBudget is returned when the walk exceeds MaxRuns.
type ErrEnumerationBudget struct{ Runs int }

// Error implements the error interface.
func (e *ErrEnumerationBudget) Error() string {
	return fmt.Sprintf("enumeration exceeded budget of %d runs", e.Runs)
}

// Enumerate computes the full answer set of the query given by the
// output predicates preds: one Answer per distinct restriction of a
// perfect model to preds, over all assignments of ID-functions.
//
// The walk is a depth-first search over ID-function choices. Each run
// uses a relation.FixedOracle that records which (relation, grouping,
// group) triples were consulted; unassigned triples default to choice 0
// and are then expanded recursively. This remains correct even though
// the set of ID-relations consulted can itself depend on earlier
// choices (derived relations change with the oracle).
//
// Answers are returned sorted by fingerprint for determinism.
//
// The walk is governed as one unit: all runs share opts.Eval.Guard (or
// a fresh guard), so timeouts and budgets bound the whole enumeration.
// When the walk is cut short — budget, cancellation, deadline — the
// answers discovered so far are returned alongside the error.
func Enumerate(info *analysis.Info, db *Database, preds []string, opts EnumerateOptions) ([]*Answer, error) {
	maxRuns := opts.MaxRuns
	if maxRuns == 0 {
		maxRuns = 100000
	}
	runs := 0
	seen := map[string]*Answer{}
	g := opts.Eval.guard()
	g.SetOp("enumerate")
	opts.Eval.Guard = g

	var walk func(assign map[string]uint64) error
	walk = func(assign map[string]uint64) error {
		if runs >= maxRuns {
			return &ErrEnumerationBudget{Runs: maxRuns}
		}
		if err := g.Checkpoint(); err != nil {
			return err
		}
		runs++
		oracle := &relation.FixedOracle{Choices: assign, Observed: map[string]int{}}
		evalOpts := opts.Eval
		evalOpts.Oracle = oracle
		res, err := Eval(info, db, evalOpts)
		if err != nil {
			return err
		}
		// Keys consulted in this run but not yet pinned in the current
		// assignment, in sorted order for determinism.
		var unassigned []string
		for k := range oracle.Observed {
			if _, ok := assign[k]; !ok {
				unassigned = append(unassigned, k)
			}
		}
		if len(unassigned) == 0 {
			ans := &Answer{Relations: map[string]*relation.Relation{}}
			for _, p := range preds {
				r := res.Relation(p)
				if r == nil {
					return fmt.Errorf("enumerate: unknown output predicate %s", p)
				}
				ans.Relations[p] = r
			}
			seen[ans.Fingerprint()] = ans
			return nil
		}
		sort.Strings(unassigned)
		k := unassigned[0]
		n := oracle.Observed[k]
		count := relation.Factorial(n)
		for idx := uint64(0); idx < count; idx++ {
			child := make(map[string]uint64, len(assign)+1)
			for kk, vv := range assign {
				child[kk] = vv
			}
			child[k] = idx
			if err := walk(child); err != nil {
				return err
			}
		}
		return nil
	}

	walkErr := walk(map[string]uint64{})
	out := make([]*Answer, 0, len(seen))
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out, walkErr
}
