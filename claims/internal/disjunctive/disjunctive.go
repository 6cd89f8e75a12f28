// Package disjunctive implements DATALOG∨ — DATALOG with disjunctive
// clause heads under minimal-model semantics — the first alternative
// non-deterministic language §3.2 of the paper surveys ([Prz88b]).
// "A fairly direct way to have a non-deterministic database language is
// to allow disjunctions in clause heads"; the paper's Example 2 clause
// is
//
//	man(X) ∨ woman(X) :- person(X)
//
// whose minimal models are exactly the man/woman partitions — the same
// answer family the IDLOG program of Example 2 defines. The tests check
// that coincidence.
//
// The implementation grounds the program over the active domain and
// enumerates minimal Herbrand models by subset search (a semantic
// reference implementation; budget-bounded).
package disjunctive

import (
	"fmt"
	"sort"

	"idlog/claims/internal/ground"
	"idlog/internal/ast"
	"idlog/internal/core"
	"idlog/internal/parser"
	"idlog/internal/relation"
)

// Program is a DATALOG∨ program: positive bodies, disjunctive heads.
type Program struct {
	rules []ground.Rule
	idb   map[string]bool
}

// Parse reads rules in the generalized syntax where the comma-separated
// head literals are interpreted as a DISJUNCTION:
//
//	man(X), woman(X) :- person(X).   % man(X) ∨ woman(X) ← person(X)
//
// Negation is not permitted (minimal-model semantics is defined for
// positive disjunctive programs here).
func Parse(src string) (*Program, error) {
	p := &Program{idb: map[string]bool{}}
	for _, chunk := range splitRules(src) {
		head, body, err := parser.RuleParts(chunk)
		if err != nil {
			return nil, err
		}
		var heads []*ast.Atom
		for _, h := range head {
			if h.Neg || h.IsChoice() || h.Atom.IsID {
				return nil, fmt.Errorf("disjunctive: invalid head literal %s", h)
			}
			heads = append(heads, h.Atom)
			p.idb[h.Atom.Pred] = true
		}
		for _, l := range body {
			if l.Neg {
				return nil, fmt.Errorf("disjunctive: negation not supported (literal %s)", l)
			}
			if l.IsChoice() || l.Atom.IsID {
				return nil, fmt.Errorf("disjunctive: invalid body literal %s", l)
			}
		}
		p.rules = append(p.rules, ground.Rule{Head: heads, Body: body})
	}
	return p, nil
}

func splitRules(src string) []string {
	var out []string
	cur := ""
	for i := 0; i < len(src); i++ {
		cur += string(src[i])
		if src[i] == '.' && (i+1 == len(src) || src[i+1] == ' ' || src[i+1] == '\n' || src[i+1] == '\t' || src[i+1] == '\r') {
			if nonEmpty(cur) {
				out = append(out, cur)
			}
			cur = ""
		}
	}
	if nonEmpty(cur) {
		out = append(out, cur)
	}
	return out
}

func nonEmpty(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return true
		}
	}
	return false
}

// Options bounds the search.
type Options struct {
	// MaxAtoms caps the candidate atoms (default 20).
	MaxAtoms int
	// Ground bounds grounding.
	Ground ground.Options
}

// Model is one minimal model.
type Model struct {
	Atoms []ground.Atom
}

// Relation projects the model onto a predicate.
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

// MinimalModels enumerates the minimal Herbrand models of the program
// over db, sorted by fingerprint.
func (p *Program) MinimalModels(db *core.Database, opts Options) ([]*Model, error) {
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
		return nil, fmt.Errorf("disjunctive: %d candidate atoms exceed the budget of %d", n, maxAtoms)
	}
	// Collect all models, then filter minimal ones.
	var masks []uint64
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		if satisfies(g, mask) {
			masks = append(masks, mask)
		}
	}
	var minimal []uint64
	for _, m := range masks {
		isMin := true
		for _, o := range masks {
			if o != m && o&m == o { // o ⊆ m and o ≠ m
				isMin = false
				break
			}
		}
		if isMin {
			minimal = append(minimal, m)
		}
	}
	var out []*Model
	for _, mask := range minimal {
		mm := &Model{}
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				mm.Atoms = append(mm.Atoms, g.Atoms[i])
			}
		}
		out = append(out, mm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint() < out[j].Fingerprint() })
	return out, nil
}

// satisfies checks that the interpretation given by mask satisfies
// every ground clause: if the (positive) body holds, some head atom
// must hold.
func satisfies(g *ground.Program, mask uint64) bool {
	idx := map[string]int{}
	for i, a := range g.Atoms {
		idx[a.Key()] = i
	}
	holds := func(a ground.Atom) bool {
		i, ok := idx[a.Key()]
		if !ok {
			return false
		}
		return mask&(1<<uint(i)) != 0
	}
	for _, c := range g.Clauses {
		bodyOK := true
		for _, p := range c.Pos {
			if !holds(p) {
				bodyOK = false
				break
			}
		}
		if !bodyOK {
			continue
		}
		headOK := false
		for _, h := range c.Head {
			if holds(h) {
				headOK = true
				break
			}
		}
		if !headOK {
			return false
		}
	}
	return true
}
