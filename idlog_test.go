package idlog

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func empDB() *Database {
	db := NewDatabase()
	for _, e := range [][2]string{
		{"joe", "toys"}, {"sue", "toys"}, {"ann", "toys"},
		{"bob", "shoes"}, {"eve", "shoes"},
	} {
		_ = db.Add("emp", Strs(e[0], e[1]))
	}
	return db
}

func TestParseAndEvalQuickstart(t *testing.T) {
	prog, err := Parse(`
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	_ = db.AddAll("e", Strs("a", "b"), Strs("b", "c"))
	res, err := prog.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation("tc").Len() != 3 {
		t.Fatalf("tc = %v", res.Relation("tc"))
	}
}

func TestParseError(t *testing.T) {
	if _, err := Parse("p(X :- q(X)."); err == nil || !strings.Contains(err.Error(), "idlog:") {
		t.Fatalf("err = %v", err)
	}
}

func TestSamplingHeadline(t *testing.T) {
	prog, err := Parse(`select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Eval(empDB(), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation("select_two_emp").Len() != 4 {
		t.Fatalf("sample = %v", res.Relation("select_two_emp"))
	}
}

func TestChoiceProgramsAreTranslated(t *testing.T) {
	prog, err := Parse(`all_depts(D) :- emp(N, D), choice((D), (N)).`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.String(), "[") {
		t.Fatalf("translated program has no ID-literal:\n%s", prog)
	}
	if !strings.Contains(prog.Source(), "choice((D), (N))") {
		t.Fatalf("Source() lost the choice literal:\n%s", prog.Source())
	}
	res, err := prog.Eval(empDB())
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation("all_depts").Len() != 2 {
		t.Fatalf("all_depts = %v", res.Relation("all_depts"))
	}
}

func TestEnumerateFacade(t *testing.T) {
	prog, err := Parse(`
		sex_guess(X, male) :- person(X).
		sex_guess(X, female) :- person(X).
		man(X) :- sex_guess[1](X, male, 1).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	_ = db.AddAll("person", Strs("a"), Strs("b"))
	answers, err := prog.Enumerate(db, []string{"man"})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 4 {
		t.Fatalf("answers = %d, want 4", len(answers))
	}
}

func TestEnumerateBudgetOption(t *testing.T) {
	prog, err := Parse(`one(N) :- big[](N, 0).`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	for i := int64(0); i < 8; i++ {
		_ = db.Add("big", Ints(i))
	}
	if _, err := prog.Enumerate(db, []string{"one"}, WithMaxRuns(3)); err == nil {
		t.Fatalf("budget not enforced")
	}
}

func TestOptimizeFacade(t *testing.T) {
	prog, err := Parse(`
		q(X) :- a(X, Y).
		a(X, Y) :- p(X, Z), a(Z, Y).
		a(X, Y) :- p(X, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := prog.Optimize("q")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(opt.String(), "p[1](X, Y, 0)") {
		t.Fatalf("optimized program:\n%s", opt)
	}
	db := NewDatabase()
	_ = db.AddAll("p", Ints(1, 2), Ints(2, 3))
	a, err := prog.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	b, err := opt.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Relation("q").Equal(b.Relation("q")) {
		t.Fatalf("optimized result differs")
	}
}

func TestSampleFacade(t *testing.T) {
	spec := SampleSpec{Relation: "emp", Arity: 2, GroupBy: []int{2}, K: 2}
	sample, err := Sample(spec, empDB(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if sample.Len() != 4 {
		t.Fatalf("sample = %v", sample)
	}
	prog, err := SampleProgram(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.String(), "emp[2]") {
		t.Fatalf("sample program = %s", prog)
	}
}

func TestProgramIntrospection(t *testing.T) {
	prog, err := Parse(`
		reach(X) :- start(X).
		reach(Y) :- reach(X), e(X, Y).
		unreach(X) :- node(X), not reach(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Strata() != 2 {
		t.Fatalf("strata = %d", prog.Strata())
	}
	in := prog.InputPredicates()
	if len(in) != 3 || in[0] != "e" || in[1] != "node" || in[2] != "start" {
		t.Fatalf("inputs = %v", in)
	}
	out := prog.OutputPredicates()
	if len(out) != 2 || out[0] != "reach" || out[1] != "unreach" {
		t.Fatalf("outputs = %v", out)
	}
}

func TestDeterministicByDefault(t *testing.T) {
	prog, err := Parse(`pick(N) :- emp[2](N, D, 0).`)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := prog.Eval(empDB())
	b, _ := prog.Eval(empDB())
	if !a.Relation("pick").Equal(b.Relation("pick")) {
		t.Fatalf("default evaluation not deterministic")
	}
}

func TestMaxDerivationsOption(t *testing.T) {
	prog, err := Parse(`
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	for i := int64(0); i < 30; i++ {
		_ = db.Add("e", Ints(i, i+1))
	}
	if _, err := prog.Eval(db, WithMaxDerivations(5)); err == nil {
		t.Fatalf("derivation budget not enforced")
	}
}

func TestSnapshotRoundTripFacade(t *testing.T) {
	db := empDB()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Relation("emp").Equal(db.Relation("emp")) {
		t.Fatalf("snapshot round trip lost data")
	}
	path := filepath.Join(t.TempDir(), "db.idb")
	if err := SaveSnapshot(path, db); err != nil {
		t.Fatal(err)
	}
	again, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Relation("emp").Equal(db.Relation("emp")) {
		t.Fatalf("file snapshot round trip lost data")
	}
}

func TestCheckDeterministic(t *testing.T) {
	counting, err := Parse(`
		has_tid(T) :- item[](X, T).
		card(C) :- has_tid(T), succ(T, C), not has_tid(C).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	for i := int64(0); i < 6; i++ {
		_ = db.Add("item", Ints(i))
	}
	ok, err := counting.CheckDeterministic(db, []string{"card"})
	if err != nil || !ok {
		t.Fatalf("counting should be deterministic: %v %v", ok, err)
	}

	picking, err := Parse(`pick(X) :- item[](X, 0).`)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = picking.CheckDeterministic(db, []string{"pick"})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("picking should be detected as non-deterministic")
	}

	if _, err := counting.CheckDeterministic(db, []string{"nope"}); err == nil {
		t.Fatalf("unknown predicate accepted")
	}
}

func TestExplainFacade(t *testing.T) {
	prog, err := Parse(`
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	if err := AddFactsText(db, "e(a, b). e(b, c)."); err != nil {
		t.Fatal(err)
	}
	res, err := prog.Eval(db, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := res.Explain("tc", Strs("a", "c"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tree, "[input]") || !strings.Contains(tree, "tc(a, c)") {
		t.Fatalf("tree:\n%s", tree)
	}
}
