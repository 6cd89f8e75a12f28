package idlog

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"idlog/internal/analysis"
	"idlog/internal/arith"
	"idlog/internal/ast"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// referenceModel evaluates p over db with the textbook semantics and
// nothing of the engine's executor (see referenceRelations). It returns
// one fingerprint per output predicate, in OutputPredicates order.
func referenceModel(t *testing.T, p *Program, db *Database, oracle Oracle) string {
	t.Helper()
	rels := referenceRelations(t, p, db, oracle)
	var b strings.Builder
	for _, pred := range p.OutputPredicates() {
		fmt.Fprintf(&b, "%s=%s\n", pred, rels[pred].Fingerprint())
	}
	return b.String()
}

// referenceAnswers is the reference's answer to a prepared goal: the
// answer predicate of the reference model of the goal's wrapper
// program, the whole program as written, in QueryResult.Rows order.
func referenceAnswers(t *testing.T, pq *PreparedQuery, db *Database) []Tuple {
	t.Helper()
	return referenceRelations(t, pq.compiled, db, SortedOracle())[pq.ansPred].Sorted()
}

// sameRows reports whether two answer lists hold the same tuples in
// the same order.
func sameRows(a, b []Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y Tuple) bool { return x.Compare(y) == 0 })
}

// referenceRelations computes p's model over db stratum by stratum:
// naive rounds of every clause until no new tuple appears, each body
// matched by nested loops over its literals with a substitution map.
// ID-relations are materialized with the same oracle the engine uses.
// It returns every relation of the model by predicate.
func referenceRelations(t *testing.T, p *Program, db *Database, oracle Oracle) map[string]*relation.Relation {
	t.Helper()
	rels := map[string]*relation.Relation{}
	for pred := range p.info.EDB {
		if r := db.Relation(pred); r != nil {
			rels[pred] = r
		} else {
			rels[pred] = relation.New(pred, p.info.Arity[pred])
		}
	}
	for pred := range p.info.IDB {
		rels[pred] = relation.New(pred, p.info.Arity[pred])
	}
	for _, s := range p.info.Strata {
		idrels := map[string]*relation.Relation{}
		for _, need := range s.IDNeeds {
			idr, err := relation.MaterializeIDBounded(rels[need.Pred], need.Key(), need.Group, oracle, need.Bound)
			if err != nil {
				t.Fatal(err)
			}
			idrels[need.Key()] = idr
		}
		for changed := true; changed; {
			changed = false
			for _, oc := range s.Clauses {
				var heads []value.Tuple
				refMatch(t, oc.Clause.Body, map[string]value.Value{}, rels, idrels, func(sub map[string]value.Value) {
					heads = append(heads, refGround(oc.Clause.Head.Args, sub))
				})
				for _, h := range heads {
					if rels[oc.Clause.Head.Pred].MustInsert(h) {
						changed = true
					}
				}
			}
		}
	}
	return rels
}

// refMatch calls emit once per substitution extending sub that
// satisfies every literal of body, matched left to right.
func refMatch(t *testing.T, body []*ast.Literal, sub map[string]value.Value, rels, idrels map[string]*relation.Relation, emit func(map[string]value.Value)) {
	if len(body) == 0 {
		emit(sub)
		return
	}
	l, rest := body[0].Atom, body[1:]
	next := func(sub map[string]value.Value) { refMatch(t, rest, sub, rels, idrels, emit) }
	if b, ok := arith.Lookup(l.Pred); ok {
		args := make([]value.Value, len(l.Args))
		bound := make([]bool, len(l.Args))
		for i, a := range l.Args {
			args[i], bound[i] = refValue(a, sub)
		}
		sols, err := b.Solve(args, bound)
		if err != nil {
			t.Fatal(err)
		}
		if body[0].Neg {
			if len(sols) == 0 {
				next(sub)
			}
			return
		}
		for _, sol := range sols {
			if ext, ok := refUnify(l.Args, sol, sub); ok {
				next(ext)
			}
		}
		return
	}
	rel := rels[l.Pred]
	if l.IsID {
		rel = idrels[analysis.IDNeed{Pred: l.Pred, Group: l.Group}.Key()]
	}
	if body[0].Neg {
		if !rel.Contains(refGround(l.Args, sub)) {
			next(sub)
		}
		return
	}
	for _, tup := range rel.Tuples() {
		if ext, ok := refUnify(l.Args, tup, sub); ok {
			next(ext)
		}
	}
}

// refValue evaluates a term under sub, reporting whether it is bound.
func refValue(term ast.Term, sub map[string]value.Value) (value.Value, bool) {
	switch term := term.(type) {
	case ast.Const:
		return term.Val, true
	case ast.Var:
		v, ok := sub[term.Name]
		return v, ok
	}
	panic(fmt.Sprintf("reference: unsupported term %T", term))
}

// refUnify extends sub so that args match vals, or reports failure.
func refUnify(args []ast.Term, vals []value.Value, sub map[string]value.Value) (map[string]value.Value, bool) {
	ext := make(map[string]value.Value, len(sub)+len(args))
	for k, v := range sub {
		ext[k] = v
	}
	for i, a := range args {
		if v, ok := refValue(a, ext); ok {
			if !v.Equal(vals[i]) {
				return nil, false
			}
			continue
		}
		ext[a.(ast.Var).Name] = vals[i]
	}
	return ext, true
}

// refGround instantiates args under sub; safety binds every variable.
func refGround(args []ast.Term, sub map[string]value.Value) value.Tuple {
	out := make(value.Tuple, len(args))
	for i, a := range args {
		out[i], _ = refValue(a, sub)
	}
	return out
}

// engineModel evaluates p with opts and renders the same fingerprints
// as referenceModel.
func engineModel(t *testing.T, p *Program, db *Database, opts ...Option) string {
	t.Helper()
	res, err := p.Eval(db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, pred := range p.OutputPredicates() {
		fmt.Fprintf(&b, "%s=%s\n", pred, res.Relation(pred).Fingerprint())
	}
	return b.String()
}

// oracleOf is the oracle a run with opts uses.
func oracleOf(opts []Option) Oracle {
	if o := buildConfig(context.Background(), opts).eval.Oracle; o != nil {
		return o
	}
	return SortedOracle()
}

// TestPaperExamplesMatchReference anchors the executor on the paper's
// Examples 1–8 (default and seeded oracle) and a program with negation
// and builtins: every evaluation configuration must compute the
// reference model.
func TestPaperExamplesMatchReference(t *testing.T) {
	db := paperCorpusDB()
	configs := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"traced", []Option{WithTrace()}},
	}
	for _, w := range paperCorpus(t) {
		want := referenceModel(t, w.prog, db, oracleOf(w.opts))
		for _, c := range configs {
			if got := engineModel(t, w.prog, db, append(append([]Option{}, w.opts...), c.opts...)...); got != want {
				t.Errorf("%s/%s: model differs from the reference\nwant:\n%s\ngot:\n%s", w.name, c.name, want, got)
			}
		}
	}
}

// TestRandomProgramsMatchReference checks recursion through a
// non-linear rule, builtins, and negation on random inputs against the
// reference.
func TestRandomProgramsMatchReference(t *testing.T) {
	templates := []string{
		`p(X, Y) :- e(X, Y).
		 p(X, Y) :- p(X, Z), p(Z, Y).`,
		`odd(Y) :- base(X), succ(X, Y).
		 odd(Y) :- odd(X), succ(X, Z), succ(Z, Y), Y <= 20.`,
		`r(X) :- e(X, Y).
		 s(X) :- r(X), not t(X).
		 t(X) :- e(X, X).`,
	}
	rng := rand.New(rand.NewSource(77))
	for ti, src := range templates {
		prog := mustParse(t, src)
		for trial := 0; trial < 10; trial++ {
			db := NewDatabase()
			for i := 0; i < 3+rng.Intn(8); i++ {
				_ = db.Add("e", Ints(int64(rng.Intn(5)), int64(rng.Intn(5))))
			}
			_ = db.Add("base", Ints(int64(rng.Intn(3))))
			want := referenceModel(t, prog, db, SortedOracle())
			if got := engineModel(t, prog, db); got != want {
				t.Fatalf("template %d trial %d: model differs from the reference\nwant:\n%s\ngot:\n%s",
					ti, trial, want, got)
			}
		}
	}
}
