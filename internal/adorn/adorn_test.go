package adorn

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"idlog/internal/analysis"
	"idlog/internal/ast"
	"idlog/internal/core"
	"idlog/internal/parser"
	"idlog/internal/value"
)

// existentialPositions returns the sorted 0-based existential positions
// of pred, or nil.
func existentialPositions(r *Result, pred string) []int {
	flags := r.Existential[pred]
	var out []int
	for i, f := range flags {
		if f {
			out = append(out, i)
		}
	}
	return out
}

// positions renders a predicate's existential positions 1-based, as the
// paper writes them.
func positions(r *Result) string {
	preds := make([]string, 0, len(r.Existential))
	for p := range r.Existential {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	s := ""
	for _, p := range preds {
		for pos, f := range r.Existential[p] {
			if f {
				if s != "" {
					s += " "
				}
				s += fmt.Sprintf("%s.%d", p, pos+1)
			}
		}
	}
	return s
}

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Program(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// example6 is the program of Example 6 / Example 8.
const example6 = `
	q(X) :- a(X, Y).
	a(X, Y) :- p(X, Z), a(Z, Y).
	a(X, Y) :- p(X, Y).
`

func TestExample6Adornment(t *testing.T) {
	res, err := Analyze(mustParse(t, example6), "q")
	if err != nil {
		t.Fatal(err)
	}
	// Only a's second argument is ∀-existential at the predicate level
	// (p.2 is blocked by the occurrence p(X, Z) whose Z joins with a).
	if got := positions(res); got != "a.2" {
		t.Fatalf("existential positions = %q, want \"a.2\"", got)
	}
	if pos := existentialPositions(res, "a"); len(pos) != 1 || pos[0] != 1 {
		t.Fatalf("ExistentialPositions(a) = %v", pos)
	}
}

func TestExample6PushProjections(t *testing.T) {
	prog := mustParse(t, example6)
	res, err := Analyze(prog, "q")
	if err != nil {
		t.Fatal(err)
	}
	pushed := PushProjections(prog, res)
	want := mustParse(t, `
		q(X) :- a(X).
		a(X) :- p(X, Z), a(Z).
		a(X) :- p(X, Y).
	`)
	if pushed.String() != want.String() {
		t.Fatalf("pushed =\n%s\nwant\n%s", pushed, want)
	}
}

func TestExample8FullRewrite(t *testing.T) {
	// The paper's Example 8: after projection pushing, the p-literal of
	// the non-recursive clause becomes p[1](X, Y, 0).
	opt, err := Optimize(mustParse(t, example6), "q")
	if err != nil {
		t.Fatal(err)
	}
	want := mustParse(t, `
		q(X) :- a(X).
		a(X) :- p(X, Z), a(Z).
		a(X) :- p[1](X, Y, 0).
	`)
	if opt.String() != want.String() {
		t.Fatalf("optimized =\n%s\nwant\n%s", opt, want)
	}
}

func TestSection4OpeningProgram(t *testing.T) {
	// p(X) :- q(X, Z), z(Z, Y), y(W)  becomes
	// p(X) :- q(X, Z), z[1](Z, Y, 0), y[](W, 0).
	src := `p(X) :- q(X, Z), zz(Z, Y), y(W).`
	opt, err := Optimize(mustParse(t, src), "p")
	if err != nil {
		t.Fatal(err)
	}
	want := mustParse(t, `p(X) :- q(X, Z), zz[1](Z, Y, 0), y[](W, 0).`)
	if opt.String() != want.String() {
		t.Fatalf("optimized = %s, want %s", opt, want)
	}
}

func TestExample7SufficientTestIsConservative(t *testing.T) {
	// In Example 7, the Y in x(Y) :- p(Y) is ∀-existential w.r.t. q1 but
	// NOT ∃-existential; the adornment algorithm must not identify it
	// (the constant in q1 :- x(c) blocks x.1, hence p.1).
	src := `
		q1 :- x(c).
		q2 :- x(a).
		x(Y) :- p(Y).
		p(b) :- u(W).
		p(c) :- y(W).
	`
	res, err := Analyze(mustParse(t, src), "q1")
	if err != nil {
		t.Fatal(err)
	}
	if flags := res.Existential["p"]; len(flags) > 0 && flags[0] {
		t.Fatalf("p.1 wrongly identified as existential: %v", positions(res))
	}
	if flags := res.Existential["x"]; len(flags) > 0 && flags[0] {
		t.Fatalf("x.1 wrongly identified as existential")
	}
	// u.1 and y.1 are fine: their variables appear nowhere else.
	if got := positions(res); got != "u.1 y.1" {
		t.Fatalf("positions = %q, want \"u.1 y.1\"", got)
	}
}

func TestOutputPredicateNeverExistential(t *testing.T) {
	src := `q(X, Y) :- e(X, Y).`
	res, err := Analyze(mustParse(t, src), "q")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Existential["q"]) != 0 {
		t.Fatalf("output predicate marked existential: %v", positions(res))
	}
}

func TestUnknownOutputRejected(t *testing.T) {
	_, err := Analyze(mustParse(t, "p(X) :- q(X)."), "nope")
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v", err)
	}
}

func TestChoiceRejected(t *testing.T) {
	_, err := Analyze(mustParse(t, "p(X) :- q(X, Y), choice((X), (Y))."), "p")
	if err == nil {
		t.Fatalf("choice literal should be rejected")
	}
}

func TestUnrelatedClausesUntouched(t *testing.T) {
	src := `
		q(X) :- a(X, Y).
		a(X, Y) :- p(X, Y).
		other(X, Y) :- stuff(X, Y, Z).
	`
	prog := mustParse(t, src)
	opt, err := Optimize(prog, "q")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(opt.String(), "other(X, Y) :- stuff(X, Y, Z).") {
		t.Fatalf("unrelated clause modified:\n%s", opt)
	}
}

func TestNegatedLiteralsNotRewritten(t *testing.T) {
	// A negated input literal must not become an ID-literal even if a
	// variable looks existential (negation has different semantics).
	src := `p(X) :- q(X), not r(X).`
	opt, err := Optimize(mustParse(t, src), "p")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(opt.String(), "r[") {
		t.Fatalf("negated literal rewritten:\n%s", opt)
	}
}

// chainGraph builds p-edges forming a chain with extra fan-out leaves.
func chainGraph(n, fan int) *core.Database {
	db := core.NewDatabase()
	for i := 0; i < n; i++ {
		_ = db.Add("p", value.Ints(int64(i), int64(i+1)))
		for f := 0; f < fan; f++ {
			_ = db.Add("p", value.Ints(int64(i), int64(1000+int64(i*fan+f))))
		}
	}
	return db
}

func TestExample8EquivalenceOnGraphs(t *testing.T) {
	// ∃-existential rewriting must preserve the query: every enumerated
	// answer of the optimized (non-deterministic) program equals the
	// original deterministic answer.
	prog := mustParse(t, example6)
	opt, err := Optimize(prog, "q")
	if err != nil {
		t.Fatal(err)
	}
	origInfo, err := analysis.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	optInfo, err := analysis.Analyze(opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		db := core.NewDatabase()
		n := 2 + rng.Intn(5)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Intn(3) == 0 {
					_ = db.Add("p", value.Ints(int64(i), int64(j)))
				}
			}
		}
		orig, err := core.Eval(origInfo, db, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		answers, err := core.Enumerate(optInfo, db, []string{"q"}, core.EnumerateOptions{MaxRuns: 50000})
		if err != nil {
			t.Fatal(err)
		}
		if len(answers) != 1 {
			t.Fatalf("trial %d: optimized program has %d distinct answers, want 1 (deterministic query)", trial, len(answers))
		}
		if !answers[0].Relations["q"].Equal(orig.Relation("q")) {
			t.Fatalf("trial %d: optimized answer differs:\norig %v\nopt  %v",
				trial, orig.Relation("q"), answers[0].Relations["q"])
		}
	}
}

func TestOptimizationReducesWork(t *testing.T) {
	// all_depts(D) :- emp(N, D): the optimizer should derive once per
	// department instead of once per employee.
	src := `all_depts(D) :- emp(N, D).`
	prog := mustParse(t, src)
	opt, err := Optimize(prog, "all_depts")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(opt.String(), "emp[2](N, D, 0)") {
		t.Fatalf("expected ID-literal rewrite, got:\n%s", opt)
	}
	db := core.NewDatabase()
	const depts, perDept = 5, 40
	for d := 0; d < depts; d++ {
		for e := 0; e < perDept; e++ {
			_ = db.Add("emp", value.Ints(int64(d*perDept+e), int64(d)))
		}
	}
	origInfo, _ := analysis.Analyze(prog)
	optInfo, _ := analysis.Analyze(opt)
	orig, err := core.Eval(origInfo, db, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := core.Eval(optInfo, db, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Relation("all_depts").Equal(fast.Relation("all_depts")) {
		t.Fatalf("optimized result differs")
	}
	if orig.Stats.Derivations != depts*perDept || fast.Stats.Derivations != depts {
		t.Fatalf("derivations: orig=%d (want %d), opt=%d (want %d)",
			orig.Stats.Derivations, depts*perDept, fast.Stats.Derivations, depts)
	}
}

func TestTheorem4PropertyOnRandomPrograms(t *testing.T) {
	// Theorem 4: every ∀-existential argument found by the adornment
	// algorithm is ∃-existential. We check the consequence: the
	// ID-rewritten program is query-equivalent on random inputs.
	programs := []string{
		`out(X) :- e(X, Y).`,
		`out(X) :- e(X, Y), f(Y).`, // Y joins: no rewrite of e, f.1 blocked too
		`out(X) :- e(X, Y), f(Z).`,
		`out(X) :- mid(X).
		 mid(X) :- e(X, Y).`,
	}
	rng := rand.New(rand.NewSource(5))
	for pi, src := range programs {
		prog := mustParse(t, src)
		opt, err := Optimize(prog, "out")
		if err != nil {
			t.Fatalf("program %d: %v", pi, err)
		}
		origInfo, err := analysis.Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		optInfo, err := analysis.Analyze(opt)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			db := core.NewDatabase()
			for i := 0; i < 4+rng.Intn(5); i++ {
				_ = db.Add("e", value.Ints(int64(rng.Intn(4)), int64(rng.Intn(4))))
			}
			for i := 0; i < rng.Intn(5); i++ {
				_ = db.Add("f", value.Ints(int64(rng.Intn(4))))
			}
			orig, err := core.Eval(origInfo, db, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			answers, err := core.Enumerate(optInfo, db, []string{"out"}, core.EnumerateOptions{MaxRuns: 50000})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range answers {
				if !a.Relations["out"].Equal(orig.Relation("out")) {
					t.Fatalf("program %d trial %d: answer differs\nprogram:\n%s\noptimized:\n%s", pi, trial, src, opt)
				}
			}
		}
	}
}

func TestIDLiteralBasePositionsNotExistential(t *testing.T) {
	// Positions of a predicate referenced through an ID-literal must not
	// be eliminated: the tid couples all of them.
	src := `
		q(X) :- a(X, Y).
		a(X, Y) :- p[1](X, Y, 0).
	`
	res, err := Analyze(mustParse(t, src), "q")
	if err != nil {
		t.Fatal(err)
	}
	if flags := res.Existential["p"]; len(flags) > 0 && (flags[0] || flags[1]) {
		t.Fatalf("ID-literal base positions marked existential: %v", positions(res))
	}
}
