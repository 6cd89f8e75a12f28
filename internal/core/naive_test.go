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
// until a round inserts nothing. It returns every relation and the
// number of body instantiations over all rounds. ID-literals are not
// supported.
func naiveModel(t *testing.T, info *analysis.Info, db *Database) (map[string]*relation.Relation, int) {
	t.Helper()
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
		for changed := true; changed; {
			changed = false
			for _, oc := range s.Clauses {
				var heads []value.Tuple
				naiveMatch(t, oc.Clause.Body, map[string]value.Value{}, rels, func(sub map[string]value.Value) {
					derivations++
					heads = append(heads, naiveGround(oc.Clause.Head.Args, sub))
				})
				for _, h := range heads {
					if rels[oc.Clause.Head.Pred].MustInsert(h) {
						changed = true
					}
				}
			}
		}
	}
	return rels, derivations
}

// naiveMatch calls emit once per extension of sub that satisfies every
// literal of body, matched left to right.
func naiveMatch(t *testing.T, body []*ast.Literal, sub map[string]value.Value, rels map[string]*relation.Relation, emit func(map[string]value.Value)) {
	if len(body) == 0 {
		emit(sub)
		return
	}
	l, rest := body[0].Atom, body[1:]
	next := func(sub map[string]value.Value) { naiveMatch(t, rest, sub, rels, emit) }
	if l.IsID {
		t.Fatalf("naiveModel: ID-literal %s unsupported", l.Pred)
	}
	if b, ok := arith.Lookup(l.Pred); ok {
		args := make([]value.Value, len(l.Args))
		bound := make([]bool, len(l.Args))
		for i, a := range l.Args {
			args[i], bound[i] = naiveValue(a, sub)
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
			if ext, ok := naiveUnify(l.Args, sol, sub); ok {
				next(ext)
			}
		}
		return
	}
	if body[0].Neg {
		if !rels[l.Pred].Contains(naiveGround(l.Args, sub)) {
			next(sub)
		}
		return
	}
	for _, tup := range rels[l.Pred].Tuples() {
		if ext, ok := naiveUnify(l.Args, tup, sub); ok {
			next(ext)
		}
	}
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
	naive, derivations := naiveModel(t, mustAnalyze(t, src), db)
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
			naive, _ := naiveModel(t, info, db)
			for p := range info.IDB {
				if !a.Relation(p).Equal(naive[p]) {
					t.Fatalf("template %d trial %d: strategies disagree on %s", ti, trial, p)
				}
			}
		}
	}
}
