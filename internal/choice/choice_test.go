package choice

import (
	"reflect"
	"strings"
	"testing"

	"idlog/internal/analysis"
	"idlog/internal/ast"
	"idlog/internal/core"
	"idlog/internal/parser"
	"idlog/internal/relation"
	"idlog/internal/value"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Program(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func empDB() *core.Database {
	db := core.NewDatabase()
	for _, e := range [][2]string{
		{"joe", "toys"}, {"sue", "toys"}, {"ann", "toys"},
		{"bob", "shoes"}, {"eve", "shoes"},
	} {
		_ = db.Add("emp", value.Strs(e[0], e[1]))
	}
	return db
}

const selectEmpSrc = `select_emp(Name) :- emp(Name, Dept), choice((Dept), (Name)).`

func TestValidateAcceptsKN88Example(t *testing.T) {
	if _, err := Translate(mustParse(t, selectEmpSrc)); err != nil {
		t.Fatalf("Translate: %v", err)
	}
}

func TestC1TwoChoicesInOneClause(t *testing.T) {
	src := `p(X, Y) :- q(X, Y), choice((X), (Y)), choice((Y), (X)).`
	_, err := Translate(mustParse(t, src))
	verr, ok := err.(*ValidationError)
	if !ok || verr.Cond != "C1" {
		t.Fatalf("err = %v, want C1 violation", err)
	}
}

func TestC2RelatedChoiceClauses(t *testing.T) {
	// q's choice clause body depends on p, whose clause also has choice:
	// clause for p is in P/q, violating C2.
	src := `
		p(X) :- base(X, Y), choice((X), (Y)).
		q(Y) :- p(X), r(X, Y), choice((X), (Y)).
	`
	_, err := Translate(mustParse(t, src))
	verr, ok := err.(*ValidationError)
	if !ok || verr.Cond != "C2" {
		t.Fatalf("err = %v, want C2 violation", err)
	}
}

func TestC2IndependentChoiceClausesAllowed(t *testing.T) {
	// Two choice clauses over disjoint subprograms are fine (as in
	// Example 5's pair encoding).
	src := `
		emp1(N, D) :- emp(N, D), choice((D), (N)).
		emp2(N, D) :- emp(N, D), choice((D), (N)).
	`
	if _, err := Translate(mustParse(t, src)); err != nil {
		t.Fatalf("Translate: %v", err)
	}
}

func TestScopeViolation(t *testing.T) {
	src := `p(X) :- q(X), choice((X), (Y)).`
	_, err := Translate(mustParse(t, src))
	verr, ok := err.(*ValidationError)
	if !ok || verr.Cond != "scope" {
		t.Fatalf("err = %v, want scope violation", err)
	}
}

func TestBuildPc(t *testing.T) {
	pc, occs, err := BuildPc(mustParse(t, selectEmpSrc))
	if err != nil {
		t.Fatal(err)
	}
	if len(occs) != 1 {
		t.Fatalf("occurrences = %d", len(occs))
	}
	if len(pc.Clauses) != 2 {
		t.Fatalf("P_c clauses = %d, want 2", len(pc.Clauses))
	}
	// The rewritten clause references the choice predicate.
	lit := pc.Clauses[0].Body[1]
	if lit.Atom == nil || lit.Atom.Pred != occs[0].Pred {
		t.Fatalf("rewritten literal = %v", lit)
	}
	// The choice clause head is extChoice(Dept, Name) over the body.
	cc := pc.Clauses[1]
	if cc.Head.Pred != occs[0].Pred || len(cc.Head.Args) != 2 || len(cc.Body) != 1 {
		t.Fatalf("choice clause = %v", cc)
	}
}

func TestEvalSelectsOnePerDepartment(t *testing.T) {
	prog := mustParse(t, selectEmpSrc)
	db := empDB()
	for seed := uint64(0); seed < 10; seed++ {
		res, err := Eval(prog, db, Options{Oracle: relation.RandomOracle{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		sel := res.Relation("select_emp")
		if sel.Len() != 2 {
			t.Fatalf("seed %d: selected %d, want 2 (one per dept): %v", seed, sel.Len(), sel)
		}
	}
}

func TestEnumerateAllDeptsFunctionalSubsets(t *testing.T) {
	// 3 toys-employees × 2 shoes-employees = 6 intended models.
	prog := mustParse(t, selectEmpSrc)
	answers, err := Enumerate(prog, empDB(), []string{"select_emp"}, EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 6 {
		t.Fatalf("intended models = %d, want 6", len(answers))
	}
	for _, a := range answers {
		if a.Relations["select_emp"].Len() != 2 {
			t.Fatalf("bad answer %v", a.Relations["select_emp"])
		}
	}
}

func TestTranslateProducesStratifiedIDLOG(t *testing.T) {
	prog := mustParse(t, selectEmpSrc)
	idlog, err := Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	if idlog.HasChoice() {
		t.Fatalf("translation still contains choice:\n%s", idlog)
	}
	info, err := analysis.Analyze(idlog)
	if err != nil {
		t.Fatalf("translated program does not analyze: %v\n%s", err, idlog)
	}
	ids := 0
	for _, s := range info.Strata {
		ids += len(s.IDNeeds)
	}
	if ids == 0 {
		t.Fatalf("translation contains no ID-literal:\n%s", idlog)
	}
}

// theorem2Check verifies q-equivalence of a DATALOG^C program and its
// IDLOG translation by exhaustive enumeration of both answer sets.
func theorem2Check(t *testing.T, src string, db *core.Database, preds []string) {
	t.Helper()
	prog := mustParse(t, src)
	direct, err := Enumerate(prog, db, preds, EnumerateOptions{})
	if err != nil {
		t.Fatalf("KN88 enumeration: %v", err)
	}
	translated, err := Translate(prog)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	info, err := analysis.Analyze(translated)
	if err != nil {
		t.Fatalf("analyze translation: %v", err)
	}
	viaIDLOG, err := core.Enumerate(info, db, preds, core.EnumerateOptions{})
	if err != nil {
		t.Fatalf("IDLOG enumeration: %v", err)
	}
	a := fingerprints(direct)
	b := fingerprints(viaIDLOG)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("answer sets differ:\nKN88 (%d): %v\nIDLOG (%d): %v",
			len(a), a, len(b), b)
	}
}

// fingerprints projects an answer list to its fingerprints, sorted as
// both enumerators return them: two queries agree on an input iff
// these lists are equal.
func fingerprints(answers []*core.Answer) []string {
	out := make([]string, len(answers))
	for i, a := range answers {
		out[i] = a.Fingerprint()
	}
	return out
}

func TestTheorem2SelectEmp(t *testing.T) {
	theorem2Check(t, selectEmpSrc, empDB(), []string{"select_emp"})
}

func TestTheorem2SexGuess(t *testing.T) {
	// The paper's DATALOG^C version of Example 2 (§3.2.2).
	src := `
		sex_guess(X, male) :- person(X).
		sex_guess(X, female) :- person(X).
		sex(X, Y) :- sex_guess(X, Y), choice((X), (Y)).
		man(X) :- sex(X, male).
		woman(X) :- sex(X, female).
	`
	db := core.NewDatabase()
	_ = db.AddAll("person", value.Strs("a"), value.Strs("b"))
	theorem2Check(t, src, db, []string{"man", "woman"})
}

func TestTheorem2EmptyDomainChoice(t *testing.T) {
	// choice((), (Y)) picks one Y globally.
	src := `one(Y) :- p(Y), choice((), (Y)).`
	db := core.NewDatabase()
	_ = db.AddAll("p", value.Ints(1), value.Ints(2), value.Ints(3))
	theorem2Check(t, src, db, []string{"one"})
}

func TestTheorem2DownstreamRecursion(t *testing.T) {
	// The chosen edges feed a recursive closure downstream.
	src := `
		pick(X, Y) :- e(X, Y), choice((X), (Y)).
		reach(Y) :- start(X), pick(X, Y).
		reach(Y) :- reach(X), pick(X, Y).
	`
	db := core.NewDatabase()
	_ = db.AddAll("e",
		value.Strs("a", "b"), value.Strs("a", "c"),
		value.Strs("b", "d"), value.Strs("c", "d"))
	_ = db.Add("start", value.Strs("a"))
	theorem2Check(t, src, db, []string{"reach"})
}

func TestExample5PairEncodingIsDefective(t *testing.T) {
	// Example 5: the two-independent-choices encoding of "pick two per
	// department" admits intended models that miss departments, because
	// the two choices may coincide. IDLOG's emp[2] + N<2 never does.
	// (The clause projecting N2 is needed to make two-per-dept possible
	// at all; the paper elides it.)
	src := `
		emp1(N, D) :- emp(N, D), choice((D), (N)).
		emp2(N, D) :- emp(N, D), choice((D), (N)).
		select_two_emp(N1) :- emp1(N1, D), emp2(N2, D), N1 != N2.
		select_two_emp(N2) :- emp1(N1, D), emp2(N2, D), N1 != N2.
	`
	db := empDB()
	answers, err := Enumerate(mustParse(t, src), db, []string{"select_two_emp"}, EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defective := 0
	complete := 0
	for _, a := range answers {
		sel := a.Relations["select_two_emp"]
		perDept := map[string]int{}
		for _, tup := range db.Relation("emp").Tuples() {
			if sel.Contains(value.Tuple{tup[0]}) {
				perDept[tup[1].String()]++
			}
		}
		if perDept["toys"] == 2 && perDept["shoes"] == 2 {
			complete++
		} else {
			defective++
		}
	}
	if defective == 0 {
		t.Fatalf("expected defective intended models (choices may coincide); all %d were complete", len(answers))
	}
	if complete == 0 {
		t.Fatalf("expected at least one complete model too")
	}
}

func TestGeneratedPredNamesAvoidCollisions(t *testing.T) {
	src := `
		ext_choice_0(X) :- p(X).
		q(X, Y) :- r(X, Y), ext_choice_0(X), choice((X), (Y)).
	`
	_, occs, err := BuildPc(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if occs[0].Pred == "ext_choice_0" {
		t.Fatalf("generated name collides with user predicate")
	}
}

func TestTranslateNoChoiceIsIdentity(t *testing.T) {
	src := "p(X) :- q(X).\n"
	out, err := Translate(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != src {
		t.Fatalf("translation of choice-free program changed it: %q", out.String())
	}
}

func TestEnumerateBudget(t *testing.T) {
	prog := mustParse(t, selectEmpSrc)
	_, err := Enumerate(prog, empDB(), []string{"select_emp"}, EnumerateOptions{MaxRuns: 2})
	if _, ok := err.(*core.ErrEnumerationBudget); !ok {
		t.Fatalf("err = %v, want budget error", err)
	}
}

func TestValidationErrorStrings(t *testing.T) {
	e := &ValidationError{Cond: "C1", Msg: "boom"}
	if !strings.Contains(e.Error(), "C1") || !strings.Contains(e.Error(), "boom") {
		t.Fatalf("error text %q", e.Error())
	}
}

func FuzzChoicePipeline(f *testing.F) {
	seeds := []string{
		selectEmpSrc,
		"one(Y) :- p(Y), choice((), (Y)).",
		"p(X, Y) :- q(X, Y), choice((X), (Y)), r(Y).",
		"a(X) :- b(X, Y), choice((X), (Y)).\nc(X) :- a(X).",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Program(src)
		if err != nil || !prog.HasChoice() {
			return
		}
		// Validate/translate must never panic; when translation
		// succeeds the result must be analyzable or cleanly rejected.
		translated, err := Translate(prog)
		if err != nil {
			return
		}
		if translated.HasChoice() {
			t.Fatalf("translation left a choice literal: %s", translated)
		}
		_, _ = analysis.Analyze(translated)
	})
}
