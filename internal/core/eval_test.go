package core

import (
	"strings"
	"testing"

	"idlog/internal/analysis"
	"idlog/internal/guard"
	"idlog/internal/parser"
	"idlog/internal/relation"
	"idlog/internal/value"
)

func mustAnalyze(t *testing.T, src string) *analysis.Info {
	t.Helper()
	prog, err := parser.Program(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := analysis.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return info
}

func mustEval(t *testing.T, src string, db *Database, opts Options) *Result {
	t.Helper()
	res, err := Eval(mustAnalyze(t, src), db, opts)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return res
}

func empDB() *Database {
	db := NewDatabase()
	for _, e := range [][2]string{
		{"joe", "toys"}, {"sue", "toys"}, {"ann", "toys"},
		{"bob", "shoes"}, {"eve", "shoes"},
	} {
		if err := db.Add("emp", value.Strs(e[0], e[1])); err != nil {
			panic(err)
		}
	}
	return db
}

func chainDB(n int) *Database {
	db := NewDatabase()
	for i := 0; i < n; i++ {
		_ = db.Add("e", value.Tuple{value.Int(int64(i)), value.Int(int64(i + 1))})
	}
	return db
}

func TestFactsOnly(t *testing.T) {
	res := mustEval(t, "p(a). p(b). q(a, 1).", NewDatabase(), Options{})
	if res.Relation("p").Len() != 2 || res.Relation("q").Len() != 1 {
		t.Fatalf("p=%v q=%v", res.Relation("p"), res.Relation("q"))
	}
}

func TestTransitiveClosure(t *testing.T) {
	src := `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`
	res := mustEval(t, src, chainDB(10), Options{})
	tc := res.Relation("tc")
	want := 10 * 11 / 2 // pairs (i,j) with i<j over 0..10
	if tc.Len() != want {
		t.Fatalf("tc has %d tuples, want %d", tc.Len(), want)
	}
	if !tc.Contains(value.Tuple{value.Int(0), value.Int(10)}) {
		t.Fatalf("missing (0,10)")
	}
	if tc.Contains(value.Tuple{value.Int(5), value.Int(3)}) {
		t.Fatalf("contains backwards edge (5,3)")
	}
}

func TestNaiveAndSeminaiveAgree(t *testing.T) {
	src := `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`
	db := chainDB(15)
	a := mustEval(t, src, db, Options{})
	b := mustEval(t, src, db, Options{Naive: true})
	if !a.Relation("tc").Equal(b.Relation("tc")) {
		t.Fatalf("naive and semi-naive disagree")
	}
	if b.Stats.Derivations <= a.Stats.Derivations {
		t.Fatalf("naive should do more work: naive=%d seminaive=%d",
			b.Stats.Derivations, a.Stats.Derivations)
	}
}

func TestNegationStrata(t *testing.T) {
	src := `
		reach(X) :- start(X).
		reach(Y) :- reach(X), e(X, Y).
		node(X) :- e(X, Y).
		node(Y) :- e(X, Y).
		unreach(X) :- node(X), not reach(X).
	`
	db := NewDatabase()
	_ = db.AddAll("e",
		value.Strs("a", "b"), value.Strs("b", "c"), value.Strs("d", "e"))
	_ = db.Add("start", value.Strs("a"))
	res := mustEval(t, src, db, Options{})
	unreach := res.Relation("unreach")
	if unreach.Len() != 2 || !unreach.Contains(value.Strs("d")) || !unreach.Contains(value.Strs("e")) {
		t.Fatalf("unreach = %v", unreach)
	}
}

func TestArithmeticRecursion(t *testing.T) {
	src := `
		nat(0).
		nat(Y) :- nat(X), X < 10, succ(X, Y).
		total(S) :- nat(10), add(5, 5, S).
	`
	res := mustEval(t, src, NewDatabase(), Options{})
	if res.Relation("nat").Len() != 11 {
		t.Fatalf("nat = %v", res.Relation("nat"))
	}
	if !res.Relation("total").Contains(value.Ints(10)) {
		t.Fatalf("total = %v", res.Relation("total"))
	}
}

func TestAddEnumerationInBody(t *testing.T) {
	// The paper's p2: add(L, M, N) with N bound enumerates pairs.
	src := `
		q(a, 1).
		p2(X, L, M) :- q(X, N), add(L, M, N).
	`
	res := mustEval(t, src, NewDatabase(), Options{})
	p2 := res.Relation("p2")
	if p2.Len() != 2 {
		t.Fatalf("p2 = %v, want 2 solutions of L+M=1", p2)
	}
}

func TestSamplingSelectTwoEmp(t *testing.T) {
	// The paper's flagship query (§1, Example 5).
	src := `select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.`
	info := mustAnalyze(t, src)
	db := empDB()
	for seed := uint64(0); seed < 20; seed++ {
		res, err := Eval(info, db, Options{Oracle: relation.RandomOracle{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		sel := res.Relation("select_two_emp")
		if sel.Len() != 4 {
			t.Fatalf("seed %d: selected %d employees, want 4 (2 per department): %v", seed, sel.Len(), sel)
		}
		// Exactly two per department.
		perDept := map[string]int{}
		for _, tup := range db.Relation("emp").Tuples() {
			if sel.Contains(value.Tuple{tup[0]}) {
				perDept[tup[1].String()]++
			}
		}
		for d, n := range perDept {
			if n != 2 {
				t.Fatalf("seed %d: dept %s has %d selected", seed, d, n)
			}
		}
	}
}

func TestSamplingVariesWithSeed(t *testing.T) {
	src := `select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.`
	info := mustAnalyze(t, src)
	db := empDB()
	fps := map[string]bool{}
	for seed := uint64(0); seed < 30; seed++ {
		res, err := Eval(info, db, Options{Oracle: relation.RandomOracle{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		fps[res.Relation("select_two_emp").Fingerprint()] = true
	}
	if len(fps) < 2 {
		t.Fatalf("30 seeds produced only %d distinct samples", len(fps))
	}
}

func TestAllDeptsViaIDLiteral(t *testing.T) {
	// §1: all_depts(Dept) :- emp[2](Name, Dept, 0) — considers one
	// employee per department; the result must equal the projection.
	src := `all_depts(Dept) :- emp[2](Name, Dept, 0).`
	res := mustEval(t, src, empDB(), Options{})
	all := res.Relation("all_depts")
	if all.Len() != 2 || !all.Contains(value.Strs("toys")) || !all.Contains(value.Strs("shoes")) {
		t.Fatalf("all_depts = %v", all)
	}
	// The scan should touch at most |emp| tuples once: no join blowup.
	if res.Stats.Derivations != 2 {
		t.Fatalf("derivations = %d, want 2 (one per department)", res.Stats.Derivations)
	}
}

func TestExample2ManWomanEnumeration(t *testing.T) {
	// Example 2: man(r) = {∅, {a}, {b}, {a,b}}.
	src := `
		sex_guess(X, male) :- person(X).
		sex_guess(X, female) :- person(X).
		man(X) :- sex_guess[1](X, male, 1).
		woman(X) :- sex_guess[1](X, female, 1).
	`
	db := NewDatabase()
	_ = db.AddAll("person", value.Strs("a"), value.Strs("b"))
	answers, err := Enumerate(mustAnalyze(t, src), db, []string{"man"}, EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 4 {
		t.Fatalf("man has %d possible answers, want 4", len(answers))
	}
	sizes := map[int]int{}
	for _, a := range answers {
		sizes[a.Relations["man"].Len()]++
	}
	if sizes[0] != 1 || sizes[1] != 2 || sizes[2] != 1 {
		t.Fatalf("answer size distribution = %v, want {0:1, 1:2, 2:1}", sizes)
	}
}

func TestExample2ManWomanComplementary(t *testing.T) {
	// In every single perfect model, man and woman partition person.
	src := `
		sex_guess(X, male) :- person(X).
		sex_guess(X, female) :- person(X).
		man(X) :- sex_guess[1](X, male, 1).
		woman(X) :- sex_guess[1](X, female, 1).
	`
	db := NewDatabase()
	_ = db.AddAll("person", value.Strs("a"), value.Strs("b"), value.Strs("c"))
	answers, err := Enumerate(mustAnalyze(t, src), db, []string{"man", "woman"}, EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 8 {
		t.Fatalf("joint answers = %d, want 2^3", len(answers))
	}
	for _, a := range answers {
		man, woman := a.Relations["man"], a.Relations["woman"]
		if man.Len()+woman.Len() != 3 {
			t.Fatalf("man+woman = %d+%d, want 3", man.Len(), woman.Len())
		}
		for _, tup := range man.Tuples() {
			if woman.Contains(tup) {
				t.Fatalf("%v is both man and woman", tup)
			}
		}
	}
}

func TestExample7NonDeterministicQ1(t *testing.T) {
	// Example 7's P2: q1 may return TRUE or FALSE on non-empty input
	// depending on which tuple gets tid 0; q2 always returns FALSE.
	src := `
		q1 :- x(c).
		q2 :- x(a).
		x(Y) :- p[](Y, 0).
		p(b) :- u(X).
		p(c) :- y(X).
	`
	db := NewDatabase()
	_ = db.Add("u", value.Strs("something"))
	_ = db.Add("y", value.Strs("anything"))
	answers, err := Enumerate(mustAnalyze(t, src), db, []string{"q1", "q2"}, EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Fatalf("answers = %d, want 2 (q1 TRUE and q1 FALSE)", len(answers))
	}
	for _, a := range answers {
		if a.Relations["q2"].Len() != 0 {
			t.Fatalf("q2 should always be FALSE")
		}
	}
	q1True := 0
	for _, a := range answers {
		if a.Relations["q1"].Len() == 1 {
			q1True++
		}
	}
	if q1True != 1 {
		t.Fatalf("q1 true in %d answers, want exactly 1", q1True)
	}
}

func TestNegatedIDLiteral(t *testing.T) {
	// rest = employees that did NOT get tid 0 in their department.
	src := `
		first(N) :- emp[2](N, D, 0).
		rest(N) :- emp(N, D), not emp[2](N, D, 0).
	`
	res := mustEval(t, src, empDB(), Options{})
	if res.Relation("first").Len() != 2 {
		t.Fatalf("first = %v", res.Relation("first"))
	}
	if res.Relation("rest").Len() != 3 {
		t.Fatalf("rest = %v", res.Relation("rest"))
	}
}

func TestMissingEDBIsEmpty(t *testing.T) {
	res := mustEval(t, "p(X) :- q(X).", NewDatabase(), Options{})
	if res.Relation("p").Len() != 0 {
		t.Fatalf("p = %v", res.Relation("p"))
	}
}

func TestEDBArityMismatch(t *testing.T) {
	db := NewDatabase()
	_ = db.Add("q", value.Strs("a", "b"))
	_, err := Eval(mustAnalyze(t, "p(X) :- q(X)."), db, Options{})
	if err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("err = %v", err)
	}
}

func TestMaxDerivationsGuard(t *testing.T) {
	src := `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`
	_, err := Eval(mustAnalyze(t, src), chainDB(50), Options{MaxDerivations: 10})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v", err)
	}
}

func TestEnumerationBudget(t *testing.T) {
	src := `one(N) :- big[](N, 0).`
	db := NewDatabase()
	for i := 0; i < 10; i++ {
		_ = db.Add("big", value.Ints(int64(i)))
	}
	_, err := Enumerate(mustAnalyze(t, src), db, []string{"one"}, EnumerateOptions{MaxRuns: 5})
	if _, ok := err.(*ErrEnumerationBudget); !ok {
		t.Fatalf("err = %v, want budget error", err)
	}
}

func TestEnumerateUngroupedChoice(t *testing.T) {
	// one(N) :- p[](N, 0): 3! assignments but only 3 distinct answers.
	src := `one(N) :- p[](N, 0).`
	db := NewDatabase()
	_ = db.AddAll("p", value.Ints(1), value.Ints(2), value.Ints(3))
	answers, err := Enumerate(mustAnalyze(t, src), db, []string{"one"}, EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 3 {
		t.Fatalf("answers = %d, want 3", len(answers))
	}
	for _, a := range answers {
		if a.Relations["one"].Len() != 1 {
			t.Fatalf("each answer should pick exactly one tuple: %v", a.Relations["one"])
		}
	}
}

func TestIDRelationAccessibleOnResult(t *testing.T) {
	src := `all_depts(D) :- emp[2](N, D, 0).`
	res := mustEval(t, src, empDB(), Options{})
	idr := res.IDRelation("emp[1]")
	if idr == nil {
		t.Fatalf("ID-relation emp[1] not recorded; have %v", res.Relations())
	}
	// The constant tid 0 lets the engine prune to one tuple per
	// department (footnote 6 of the paper).
	if idr.Len() != 2 {
		t.Fatalf("pruned ID-relation has %d tuples, want 2 (one per dept): %v", idr.Len(), idr)
	}
	for _, tup := range idr.Tuples() {
		if tup[2].Num != 0 {
			t.Fatalf("pruned ID-relation contains tid %d", tup[2].Num)
		}
		if !empDB().Relation("emp").Contains(tup[:2]) {
			t.Fatalf("pruned tuple %v not from base relation", tup)
		}
	}
	if res.Stats.IDRelations != 1 {
		t.Fatalf("IDRelations stat = %d", res.Stats.IDRelations)
	}
}

func TestTidPruningStillUnboundedWhenShared(t *testing.T) {
	// One clause bounds T, another does not: the shared materialization
	// must stay full.
	src := `
		firsts(N) :- emp[2](N, D, 0).
		all(N, T) :- emp[2](N, D, T).
	`
	res := mustEval(t, src, empDB(), Options{})
	if got := res.IDRelation("emp[1]").Len(); got != 5 {
		t.Fatalf("shared ID-relation has %d tuples, want full 5", got)
	}
	if res.Relation("all").Len() != 5 || res.Relation("firsts").Len() != 2 {
		t.Fatalf("answers wrong: all=%v firsts=%v", res.Relation("all"), res.Relation("firsts"))
	}
}

func TestTidPruningWithComparison(t *testing.T) {
	// T < 2 prunes to two tuples per group, and the answers are the
	// same as with full materialization (verified against enumeration
	// semantics by the sampling tests; here we check the prune size).
	src := `sel(N) :- emp[2](N, D, T), T < 2.`
	res := mustEval(t, src, empDB(), Options{})
	if got := res.IDRelation("emp[1]").Len(); got != 4 {
		t.Fatalf("pruned ID-relation has %d tuples, want 4 (2 per dept)", got)
	}
	if res.Relation("sel").Len() != 4 {
		t.Fatalf("sel = %v", res.Relation("sel"))
	}
}

func TestRepeatedVariableInLiteral(t *testing.T) {
	src := `loop(X) :- e(X, X).`
	db := NewDatabase()
	_ = db.AddAll("e", value.Strs("a", "a"), value.Strs("a", "b"), value.Strs("c", "c"))
	res := mustEval(t, src, db, Options{})
	loop := res.Relation("loop")
	if loop.Len() != 2 || !loop.Contains(value.Strs("a")) || !loop.Contains(value.Strs("c")) {
		t.Fatalf("loop = %v", loop)
	}
}

func TestConstantsInBodyProbe(t *testing.T) {
	src := `toys_emp(N) :- emp(N, toys).`
	res := mustEval(t, src, empDB(), Options{})
	if res.Relation("toys_emp").Len() != 3 {
		t.Fatalf("toys_emp = %v", res.Relation("toys_emp"))
	}
	// Probing on the constant column must avoid scanning shoes tuples.
	if res.Stats.TuplesScanned != 3 {
		t.Fatalf("scanned %d tuples, want 3 (index probe on constant)", res.Stats.TuplesScanned)
	}
}

func TestMutualRecursion(t *testing.T) {
	src := `
		even(0).
		even(Y) :- odd(X), succ(X, Y), Y <= 10.
		odd(Y) :- even(X), succ(X, Y), Y <= 10.
	`
	res := mustEval(t, src, NewDatabase(), Options{})
	if res.Relation("even").Len() != 6 || res.Relation("odd").Len() != 5 {
		t.Fatalf("even=%v odd=%v", res.Relation("even"), res.Relation("odd"))
	}
}

func TestStatsInsertedMatchesRelationSizes(t *testing.T) {
	src := `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`
	res := mustEval(t, src, chainDB(12), Options{})
	if res.Stats.Inserted != res.Relation("tc").Len() {
		t.Fatalf("Inserted=%d, relation size=%d", res.Stats.Inserted, res.Relation("tc").Len())
	}
}

func TestDeterministicDefaultOracle(t *testing.T) {
	src := `pick(N) :- emp[2](N, D, 0).`
	info := mustAnalyze(t, src)
	a, err := Eval(info, empDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Eval(info, empDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Relation("pick").Equal(b.Relation("pick")) {
		t.Fatalf("default oracle is not deterministic")
	}
}

// The companion paper [She90b] shows tuple-identifiers also enhance
// DETERMINISTIC expressive power: with an ungrouped ID-relation the
// cardinality of a relation is max tid + 1 — a query pure DATALOG
// cannot express. The result must be invariant across oracles.
func TestCardinalityViaTupleIdentifiers(t *testing.T) {
	src := `
		has_tid(T) :- item[](X, T).
		card(C) :- has_tid(T), succ(T, C), not has_tid(C).
		even :- card(C), mod(C, 2, 0).
	`
	info := mustAnalyze(t, src)
	for n := 1; n <= 7; n++ {
		db := NewDatabase()
		for i := 0; i < n; i++ {
			_ = db.Add("item", value.Strs(string(rune('a'+i))))
		}
		var first string
		for seed := uint64(0); seed < 8; seed++ {
			res, err := Eval(info, db, Options{Oracle: relation.RandomOracle{Seed: seed}})
			if err != nil {
				t.Fatal(err)
			}
			card := res.Relation("card")
			if card.Len() != 1 || !card.Contains(value.Ints(int64(n))) {
				t.Fatalf("n=%d seed=%d: card = %v", n, seed, card)
			}
			evenHolds := res.Relation("even").Len() == 1
			if evenHolds != (n%2 == 0) {
				t.Fatalf("n=%d: even = %v", n, evenHolds)
			}
			fp := card.Fingerprint() + res.Relation("even").Fingerprint()
			if first == "" {
				first = fp
			} else if fp != first {
				t.Fatalf("n=%d: counting query varied with the oracle", n)
			}
		}
	}
}

// Group-wise counting: the tid within each group enumerates the group,
// so per-group cardinalities are also deterministic.
func TestGroupCardinalityViaTupleIdentifiers(t *testing.T) {
	src := `
		dept_tid(D, T) :- emp[2](N, D, T).
		dept_size(D, C) :- dept_tid(D, T), succ(T, C), not dept_tid(D, C).
	`
	res := mustEval(t, src, empDB(), Options{Oracle: relation.RandomOracle{Seed: 3}})
	sizes := res.Relation("dept_size")
	if sizes.Len() != 2 {
		t.Fatalf("dept_size = %v", sizes)
	}
	if !sizes.Contains(value.Tuple{value.Str("toys"), value.Int(3)}) ||
		!sizes.Contains(value.Tuple{value.Str("shoes"), value.Int(2)}) {
		t.Fatalf("dept_size = %v", sizes)
	}
}

// TestCompletedStrataCountsStrataNotComponents: components are an
// evaluation detail of core. A run tripped inside a stratum's second
// component has completed no stratum; one tripped in the next stratum
// has completed exactly one.
func TestCompletedStrataCountsStrataNotComponents(t *testing.T) {
	info := mustAnalyze(t, `
		a(X) :- e(X).
		b(X) :- a(X).
		c(X) :- f(X), not b(X).
	`)
	if len(info.Strata) != 2 || len(info.Strata[0].Components) != 2 {
		t.Fatalf("want two strata, the first of two components")
	}
	db := NewDatabase()
	for i := 0; i < 5; i++ {
		_ = db.Add("e", value.Ints(int64(i)))
		_ = db.Add("f", value.Ints(int64(10+i)))
	}
	for _, tc := range []struct{ maxTuples, completed int }{{7, 0}, {12, 1}} {
		for _, workers := range []int{1, 2} {
			g := guard.New(nil, guard.Limits{MaxTuples: tc.maxTuples})
			res, err := Eval(info, db, Options{Guard: g, Parallelism: workers})
			if err == nil || !res.Incomplete {
				t.Fatalf("max-tuples %d: run did not trip", tc.maxTuples)
			}
			if res.CompletedStrata != tc.completed {
				t.Fatalf("max-tuples %d, workers %d: CompletedStrata = %d, want %d",
					tc.maxTuples, workers, res.CompletedStrata, tc.completed)
			}
		}
	}
}
