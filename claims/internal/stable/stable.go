// Package stable implements the stable-model semantics of Gelfond &
// Lifschitz for DATALOG with (possibly non-stratified) negation — one
// of the alternative non-deterministic query languages §3.2 of the
// paper surveys ([GL88], [SZ90]). The paper notes that every query
// defined by a non-stratified program under stable models is also
// definable by a stratified IDLOG program; the tests demonstrate the
// coincidence of answer families on the running examples.
//
// The implementation is the textbook one: ground the program over the
// active domain, then search candidate interpretations M over the
// derivable atoms, accepting M iff the least model of the
// Gelfond–Lifschitz reduct P^M equals M. The search space is 2^|atoms|;
// budgets keep it honest. This is a semantic reference implementation
// for cross-checking IDLOG, not a competitive ASP solver.
package stable

import (
	"fmt"
	"sort"

	"idlog/claims/internal/ground"
	"idlog/internal/ast"
	"idlog/internal/core"
	"idlog/internal/parser"
	"idlog/internal/relation"
)

// Program is a DATALOG¬ program under stable-model semantics.
type Program struct {
	rules []ground.Rule
	idb   map[string]bool
}

// Parse builds a Program from ordinary clause syntax (single-atom
// heads; "not" in bodies; no ID-literals or choice).
func Parse(src string) (*Program, error) {
	prog, err := parser.Program(src)
	if err != nil {
		return nil, err
	}
	return FromClauses(prog.Clauses)
}

// FromClauses wraps already-parsed clauses.
func FromClauses(clauses []*ast.Clause) (*Program, error) {
	p := &Program{idb: map[string]bool{}}
	for _, c := range clauses {
		for _, l := range c.Body {
			if l.IsChoice() {
				return nil, fmt.Errorf("stable: choice literal in %q", c)
			}
			if l.Atom.IsID {
				return nil, fmt.Errorf("stable: ID-literal in %q", c)
			}
		}
		p.rules = append(p.rules, ground.Rule{Head: []*ast.Atom{c.Head}, Body: c.Body})
		p.idb[c.Head.Pred] = true
	}
	return p, nil
}

// Options bounds the model search.
type Options struct {
	// MaxAtoms caps the candidate-atom count (default 20; the search is
	// 2^MaxAtoms reduct checks).
	MaxAtoms int
	// Ground bounds the grounding phase.
	Ground ground.Options
}

// Model is one stable model, as a set of ground atoms.
type Model struct {
	Atoms []ground.Atom
}

// Relation projects the model onto one predicate.
func (m *Model) Relation(pred string, arity int) *relation.Relation {
	out := relation.New(pred, arity)
	for _, a := range m.Atoms {
		if a.Pred == pred {
			out.MustInsert(a.Tuple)
		}
	}
	return out
}

// Fingerprint canonically identifies the model.
func (m *Model) Fingerprint() string {
	keys := make([]string, len(m.Atoms))
	for i, a := range m.Atoms {
		keys[i] = a.Key()
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += k + ";"
	}
	return s
}

// StableModels enumerates every stable model of the program over db,
// sorted by fingerprint.
func (p *Program) StableModels(db *core.Database, opts Options) ([]*Model, error) {
	maxAtoms := opts.MaxAtoms
	if maxAtoms == 0 {
		maxAtoms = 20
	}
	g, err := ground.Ground(p.rules, db, p.idb, opts.Ground)
	if err != nil {
		return nil, err
	}
	n := len(g.Atoms)
	if n > maxAtoms {
		return nil, fmt.Errorf("stable: %d candidate atoms exceed the budget of %d", n, maxAtoms)
	}
	var models []*Model
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		cand := map[string]bool{}
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				cand[g.Atoms[i].Key()] = true
			}
		}
		if isStable(g, cand) {
			m := &Model{}
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					m.Atoms = append(m.Atoms, g.Atoms[i])
				}
			}
			models = append(models, m)
		}
	}
	sort.Slice(models, func(i, j int) bool { return models[i].Fingerprint() < models[j].Fingerprint() })
	return models, nil
}

// isStable checks M = least model of the Gelfond–Lifschitz reduct P^M.
func isStable(g *ground.Program, m map[string]bool) bool {
	var reduct []ground.Clause
	for _, c := range g.Clauses {
		blocked := false
		for _, n := range c.Neg {
			if m[n.Key()] {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		reduct = append(reduct, ground.Clause{Head: c.Head, Pos: c.Pos})
	}
	least := ground.LeastModel(reduct)
	if len(least) != len(m) {
		return false
	}
	for k := range m {
		if !least[k] {
			return false
		}
	}
	return true
}
