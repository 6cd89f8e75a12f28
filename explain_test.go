package idlog

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"idlog/internal/core"
)

var updateExplainGolden = flag.Bool("update-explain", false, "rewrite testdata/explain_trees.golden")

const explainGolden = "testdata/explain_trees.golden"

// paperCorpusDB is the input database the paper-example tests share:
// persons for Examples 1–3, employees in four departments for Examples
// 4–5, and a 30-edge chain with side branches for Example 6.
func paperCorpusDB() *Database {
	db := NewDatabase()
	for i := 0; i < 6; i++ {
		_ = db.Add("person", Strs(fmt.Sprintf("p%02d", i)))
	}
	for d := 0; d < 4; d++ {
		for e := 0; e < 5; e++ {
			_ = db.Add("emp", Strs(fmt.Sprintf("e%d_%d", d, e), fmt.Sprintf("dept%d", d)))
		}
	}
	for i := 0; i < 30; i++ {
		_ = db.Add("p", Strs(fmt.Sprintf("v%03d", i), fmt.Sprintf("v%03d", i+1)))
		if i%5 == 0 {
			_ = db.Add("p", Strs(fmt.Sprintf("v%03d", i), fmt.Sprintf("w%03d", i)))
		}
	}
	db.Freeze()
	return db
}

// corpusProgram exercises what the paper examples do not: negation,
// the succ/</>/!= builtins, and `_` variables read by nothing
// downstream (projected away by the executor).
const corpusProgram = `
	node(X) :- p(X, _).
	node(Y) :- p(_, Y).
	hasin(Y) :- p(_, Y).
	root(X) :- node(X), not hasin(X).
	depth(X, 0) :- root(X).
	depth(Y, M) :- depth(X, N), p(X, Y), succ(N, M), N < 40.
	shallow(X) :- depth(X, N), N < 4.
	deep(X) :- depth(X, N), not shallow(X), N > 3.
	colleague(X, Y) :- emp(X, D), emp(Y, D), X != Y.
	staffed(D) :- emp(_, D).
`

type corpusWorkload struct {
	name string
	prog *Program
	opts []Option
}

// paperCorpus is Examples 1–6 under the default and a seeded oracle,
// Examples 7–8 (Example 6 rewritten by Optimize), and corpusProgram.
func paperCorpus(t *testing.T) []corpusWorkload {
	t.Helper()
	var ws []corpusWorkload
	for _, ex := range paperExamples {
		prog := mustParse(t, ex.src)
		ws = append(ws, corpusWorkload{ex.name, prog, nil})
		ws = append(ws, corpusWorkload{ex.name + "-seeded", prog, []Option{WithSeed(42)}})
	}
	ex8, err := mustParse(t, paperExamples[5].src).Optimize("q")
	if err != nil {
		t.Fatal(err)
	}
	ws = append(ws, corpusWorkload{"ex7-8-optimized", ex8, nil})
	ws = append(ws, corpusWorkload{"negation-builtins", mustParse(t, corpusProgram), nil})
	return ws
}

// TestExplainTreesPaperExamples pins every derivation tree Explain
// renders over the corpus: each output tuple's tree at full depth,
// hashed to one SHA-256 per workload (the full text is about a
// megabyte). Run with -update-explain to rewrite the golden file.
func TestExplainTreesPaperExamples(t *testing.T) {
	db := paperCorpusDB()
	golden := map[string]string{}
	if f, err := os.Open(explainGolden); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
				golden[name] = sum
			}
		}
		f.Close()
	} else if !*updateExplainGolden {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, w := range paperCorpus(t) {
		res, err := w.prog.Eval(db, append([]Option{WithTrace()}, w.opts...)...)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var b strings.Builder
		for _, p := range w.prog.OutputPredicates() {
			for _, tup := range res.Relation(p).Sorted() {
				tree, err := res.Explain(p, tup, 1<<20)
				if err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
				b.WriteString(tree)
			}
		}
		sum := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
		fmt.Fprintf(&out, "%s %s\n", w.name, sum)
		if !*updateExplainGolden && golden[w.name] != sum {
			t.Errorf("%s: Explain trees changed (sha256 %s, golden %s); rendering:\n%s",
				w.name, sum, golden[w.name], b.String())
		}
	}
	if *updateExplainGolden {
		if err := os.WriteFile(explainGolden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTracedRunsUseThePlan: a traced run compiles with the planner and
// may be served from the plan cache, and its Explain trees list body
// facts in the analysis order, whatever order the plan ran them in.
// The planner runs hit's body as sel(Z), e(Y, Z), e(X, Y).
func TestTracedRunsUseThePlan(t *testing.T) {
	prog := mustParse(t, `hit(X, Z) :- e(X, Y), e(Y, Z), sel(Z).`)
	db := NewDatabase()
	for i := int64(0); i < 7; i++ {
		_ = db.Add("e", Ints(i, (i+1)%7))
	}
	_ = db.Add("sel", Ints(3))
	db.Freeze()

	before := core.PlanReordersTotal()
	fresh, err := prog.Eval(db, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if core.PlanReordersTotal() <= before {
		t.Fatal("a traced run did not reorder an adversarially ordered body")
	}
	tree, err := fresh.Explain("hit", Ints(1, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := "hit(1, 3)  <=  hit(X, Z) :- e(X, Y), e(Y, Z), sel(Z).\n" +
		"  e(1, 2)  [input]\n  e(2, 3)  [input]\n  sel(3)  [input]\n"
	if tree != want {
		t.Fatalf("body facts not in analysis order:\n%s\nwant:\n%s", tree, want)
	}

	pq, err := prog.Prepare("hit(X, Z)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Query(db); err != nil { // a miss that publishes the plans
		t.Fatal(err)
	}
	if _, err := pq.Query(db, WithTrace()); err != nil {
		t.Fatal(err)
	}
	if hits, misses := pq.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("traced prepared query: plan cache hits/misses = %d/%d, want 1/1", hits, misses)
	}
	// The prepared query's own evaluation, so its Result (and trees) can
	// be read: the wrapper program with the query's plan cache armed.
	cached, err := pq.compiled.Eval(db, WithTrace(), withPlanCache(pq.cache))
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := pq.CacheStats(); hits != 2 {
		t.Fatalf("traced run not served from the plan cache (hits %d, want 2)", hits)
	}
	uncached, err := pq.compiled.Eval(db, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range fresh.Relation("hit").Sorted() {
		a, err := cached.Explain("hit", tup, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := uncached.Explain("hit", tup, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("hit%s: cached traced tree differs from a fresh traced run\ncached:\n%s\nfresh:\n%s", tup, a, b)
		}
	}
}
