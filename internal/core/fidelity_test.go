package core

import (
	"reflect"
	"testing"

	"idlog/internal/relation"
	"idlog/internal/value"
)

// answerFingerprints projects an answer list to its fingerprints, in
// the enumerator's sorted order.
func answerFingerprints(answers []*Answer) []string {
	out := make([]string, len(answers))
	for i, a := range answers {
		out[i] = a.Fingerprint()
	}
	return out
}

// TestFootnote5GroupedIDFromUngrouped machine-checks Richard Hull's
// observation in the paper's footnote 5: among all ID-predicates, the
// ungrouped p[] is primitive — every grouped ID-predicate can be
// defined through it. The construction derives the within-group rank of
// each tuple from the global tids by counting the same-group tuples
// with smaller global tid (the count itself uses the tid trick):
//
//	pair(N, N2)  — N2 precedes N within N's department
//	rank(N, R)   — R = |{N2 : pair(N, N2)}| via tids over pair[1]
//
// The derived emp_rank(N, D, R) is then a valid ID-relation of emp on
// {Dept}, and as the ungrouped ID-function varies, its answer family
// equals that of the primitive emp[2].
func TestFootnote5GroupedIDFromUngrouped(t *testing.T) {
	derivedSrc := `
		gtid(N, D, T) :- emp[](N, D, T).
		pair(N, N2) :- gtid(N, D, T), gtid(N2, D, T2), T2 < T.
		haspair(N) :- pair(N, N2).
		ptid(N, T) :- pair[1](N, N2, T).
		rank(N, R) :- ptid(N, T), succ(T, R), not ptid(N, R).
		rank(N, 0) :- emp(N, D), not haspair(N).
		sel(N) :- emp(N, D), rank(N, 0).
	`
	primitiveSrc := `sel(N) :- emp[2](N, D, 0).`

	db := NewDatabase()
	_ = db.AddAll("emp",
		value.Strs("joe", "toys"), value.Strs("sue", "toys"), value.Strs("ann", "toys"),
		value.Strs("bob", "shoes"), value.Strs("eve", "shoes"))

	derived, err := Enumerate(mustAnalyze(t, derivedSrc), db, []string{"sel"}, EnumerateOptions{MaxRuns: 2000000})
	if err != nil {
		t.Fatal(err)
	}
	primitive, err := Enumerate(mustAnalyze(t, primitiveSrc), db, []string{"sel"}, EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The primitive form has 3*2 = 6 answers (one per choice of first
	// employee per dept); the derived form must define the same family.
	if len(primitive) != 6 {
		t.Fatalf("primitive answers = %d, want 6", len(primitive))
	}
	if !reflect.DeepEqual(answerFingerprints(derived), answerFingerprints(primitive)) {
		t.Fatalf("footnote-5 construction defines a different family:\nderived  (%d): %v\nprimitive (%d): %v",
			len(derived), answerFingerprints(derived),
			len(primitive), answerFingerprints(primitive))
	}
}

// TestRankIsValidIDRelation checks the deterministic core of the
// footnote-5 construction: for any single oracle, the derived
// (emp, rank) relation is a valid ID-relation of emp grouped by Dept.
func TestRankIsValidIDRelation(t *testing.T) {
	src := `
		gtid(N, D, T) :- emp[](N, D, T).
		pair(N, N2) :- gtid(N, D, T), gtid(N2, D, T2), T2 < T.
		haspair(N) :- pair(N, N2).
		ptid(N, T) :- pair[1](N, N2, T).
		rank(N, R) :- ptid(N, T), succ(T, R), not ptid(N, R).
		rank(N, 0) :- emp(N, D), not haspair(N).
		emp_rank(N, D, R) :- emp(N, D), rank(N, R).
	`
	info := mustAnalyze(t, src)
	db := empDB()
	for seed := uint64(0); seed < 10; seed++ {
		res, err := Eval(info, db, Options{Oracle: relation.RandomOracle{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		er := res.Relation("emp_rank")
		if er.Len() != db.Relation("emp").Len() {
			t.Fatalf("seed %d: emp_rank = %v", seed, er)
		}
		// tids form 0..n-1 within each department.
		for _, g := range er.Groups([]int{1}) {
			seen := map[int64]bool{}
			for _, tup := range g.Members {
				r := tup[2].Num
				if r < 0 || r >= int64(len(g.Members)) || seen[r] {
					t.Fatalf("seed %d: bad rank %d in group %v: %v", seed, r, g.Key, g.Members)
				}
				seen[r] = true
			}
		}
	}
}

// TestArithmeticDefinableFromSucc checks §2.2's remark that the
// arithmetic predicates such as + and < can be defined by IDLOG
// programs from succ alone, by comparing the program-defined versions
// with the built-ins over a bounded domain.
func TestArithmeticDefinableFromSucc(t *testing.T) {
	src := `
		nat(0).
		nat(Y) :- nat(X), X < 12, succ(X, Y).
		% my_plus(X, Y, Z) iff X + Y = Z, from succ alone
		my_plus(X, 0, X) :- nat(X).
		my_plus(X, SY, SZ) :- my_plus(X, Y, Z), succ(Y, SY), succ(Z, SZ), nat(SZ).
		% my_lt from succ
		my_lt(X, Y) :- nat(X), succ(X, Y), nat(Y).
		my_lt(X, Z) :- my_lt(X, Y), succ(Y, Z), nat(Z).
		% my_times from my_plus
		my_times(X, 0, 0) :- nat(X).
		my_times(X, SY, Z2) :- my_times(X, Y, Z), succ(Y, SY), nat(SY), my_plus(Z, X, Z2).
	`
	res := mustEval(t, src, NewDatabase(), Options{})
	plus := res.Relation("my_plus")
	lt := res.Relation("my_lt")
	times := res.Relation("my_times")
	const bound = 12
	for x := int64(0); x <= bound; x++ {
		for y := int64(0); y <= bound; y++ {
			if x+y <= bound {
				if !plus.Contains(value.Ints(x, y, x+y)) {
					t.Fatalf("my_plus missing (%d,%d,%d)", x, y, x+y)
				}
			}
			if x*y <= bound && y <= bound {
				if !times.Contains(value.Ints(x, y, x*y)) {
					t.Fatalf("my_times missing (%d,%d,%d)", x, y, x*y)
				}
			}
			if (x < y) != lt.Contains(value.Ints(x, y)) {
				t.Fatalf("my_lt(%d,%d) = %v, want %v", x, y, !(x < y), x < y)
			}
		}
	}
	// Soundness: nothing wrong derived.
	for _, tup := range plus.Tuples() {
		if tup[0].Num+tup[1].Num != tup[2].Num {
			t.Fatalf("unsound my_plus tuple %v", tup)
		}
	}
	for _, tup := range times.Tuples() {
		if tup[0].Num*tup[1].Num != tup[2].Num {
			t.Fatalf("unsound my_times tuple %v", tup)
		}
	}
}
