package core

import (
	"fmt"
	"math/rand"
	"testing"

	"idlog/internal/analysis"
	"idlog/internal/arith"
	"idlog/internal/ast"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// naiveModel evaluates info over db by naive fixpoint rounds and
// nothing of the engine: stratum by stratum, every clause is re-matched
// against the full relations, by nested loops with a substitution map,
// until a round inserts nothing. Each stratum's ID-relations are
// materialized from oracle before its rounds, as the engine does. It
// returns every relation and the number of body instantiations over
// all rounds, or the first error a builtin or materialization raised.
func naiveModel(info *analysis.Info, db *Database, oracle relation.Oracle) (map[string]*relation.Relation, int, error) {
	rels := map[string]*relation.Relation{}
	for pred := range info.EDB {
		if r := db.Relation(pred); r != nil {
			rels[pred] = r
		} else {
			rels[pred] = relation.New(pred, info.Arity[pred])
		}
	}
	for pred := range info.IDB {
		rels[pred] = relation.New(pred, info.Arity[pred])
	}
	derivations := 0
	for _, s := range info.Strata {
		idrels := map[string]*relation.Relation{}
		for _, need := range s.IDNeeds {
			idr, err := relation.MaterializeIDBounded(rels[need.Pred], need.Key(), need.Group, oracle, need.Bound)
			if err != nil {
				return nil, 0, err
			}
			idrels[need.Key()] = idr
		}
		for changed := true; changed; {
			changed = false
			for _, oc := range s.Clauses {
				var heads []value.Tuple
				err := naiveMatch(oc.Clause.Body, map[string]value.Value{}, rels, idrels, func(sub map[string]value.Value) {
					derivations++
					heads = append(heads, naiveGround(oc.Clause.Head.Args, sub))
				})
				if err != nil {
					return nil, 0, err
				}
				for _, h := range heads {
					if rels[oc.Clause.Head.Pred].MustInsert(h) {
						changed = true
					}
				}
			}
		}
	}
	return rels, derivations, nil
}

// naiveMatch calls emit once per extension of sub that satisfies every
// literal of body, matched left to right.
func naiveMatch(body []*ast.Literal, sub map[string]value.Value, rels, idrels map[string]*relation.Relation, emit func(map[string]value.Value)) error {
	if len(body) == 0 {
		emit(sub)
		return nil
	}
	l, rest := body[0].Atom, body[1:]
	next := func(sub map[string]value.Value) error { return naiveMatch(rest, sub, rels, idrels, emit) }
	if b, ok := arith.Lookup(l.Pred); ok {
		args := make([]value.Value, len(l.Args))
		bound := make([]bool, len(l.Args))
		for i, a := range l.Args {
			args[i], bound[i] = naiveValue(a, sub)
		}
		sols, err := b.Solve(args, bound)
		if err != nil {
			return err
		}
		if body[0].Neg {
			if len(sols) == 0 {
				return next(sub)
			}
			return nil
		}
		for _, sol := range sols {
			if ext, ok := naiveUnify(l.Args, sol, sub); ok {
				if err := next(ext); err != nil {
					return err
				}
			}
		}
		return nil
	}
	rel := rels[l.Pred]
	if l.IsID {
		rel = idrels[analysis.IDNeed{Pred: l.Pred, Group: l.Group}.Key()]
	}
	if body[0].Neg {
		if !rel.Contains(naiveGround(l.Args, sub)) {
			return next(sub)
		}
		return nil
	}
	for _, tup := range rel.Tuples() {
		if ext, ok := naiveUnify(l.Args, tup, sub); ok {
			if err := next(ext); err != nil {
				return err
			}
		}
	}
	return nil
}

// naiveValue evaluates a term under sub, reporting whether it is bound.
func naiveValue(term ast.Term, sub map[string]value.Value) (value.Value, bool) {
	switch term := term.(type) {
	case ast.Const:
		return term.Val, true
	case ast.Var:
		v, ok := sub[term.Name]
		return v, ok
	}
	panic(fmt.Sprintf("naiveModel: unsupported term %T", term))
}

// naiveUnify extends sub so that args match vals, or reports failure.
func naiveUnify(args []ast.Term, vals []value.Value, sub map[string]value.Value) (map[string]value.Value, bool) {
	ext := make(map[string]value.Value, len(sub)+len(args))
	for k, v := range sub {
		ext[k] = v
	}
	for i, a := range args {
		if v, ok := naiveValue(a, ext); ok {
			if !v.Equal(vals[i]) {
				return nil, false
			}
			continue
		}
		ext[a.(ast.Var).Name] = vals[i]
	}
	return ext, true
}

// naiveGround instantiates args under sub; safety binds every variable.
func naiveGround(args []ast.Term, sub map[string]value.Value) value.Tuple {
	out := make(value.Tuple, len(args))
	for i, a := range args {
		out[i], _ = naiveValue(a, sub)
	}
	return out
}

// TestNaiveAndSeminaiveAgree: semi-naive evaluation computes the naive
// fixpoint of a chain's transitive closure with fewer derivations.
func TestNaiveAndSeminaiveAgree(t *testing.T) {
	src := `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`
	db := chainDB(15)
	a := mustEval(t, src, db, Options{})
	naive, derivations, err := naiveModel(mustAnalyze(t, src), db, relation.SortedOracle{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Relation("tc").Equal(naive["tc"]) {
		t.Fatalf("naive and semi-naive disagree")
	}
	if derivations <= a.Stats.Derivations {
		t.Fatalf("naive should do more work: naive=%d seminaive=%d",
			derivations, a.Stats.Derivations)
	}
}

// TestSeminaiveNaiveAgreeOnRandomPrograms instantiates a family of
// small program templates with random data and checks that semi-naive
// evaluation agrees with the naive fixpoint on every output predicate.
func TestSeminaiveNaiveAgreeOnRandomPrograms(t *testing.T) {
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
		info := mustAnalyze(t, src)
		for trial := 0; trial < 10; trial++ {
			db := NewDatabase()
			for i := 0; i < 3+rng.Intn(8); i++ {
				_ = db.Add("e", value.Ints(int64(rng.Intn(5)), int64(rng.Intn(5))))
			}
			_ = db.Add("base", value.Ints(int64(rng.Intn(3))))
			a, err := Eval(info, db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			naive, _, err := naiveModel(info, db, relation.SortedOracle{})
			if err != nil {
				t.Fatal(err)
			}
			for p := range info.IDB {
				if !a.Relation(p).Equal(naive[p]) {
					t.Fatalf("template %d trial %d: strategies disagree on %s", ti, trial, p)
				}
			}
		}
	}
}
