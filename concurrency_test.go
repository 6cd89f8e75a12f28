package idlog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// concurrencyDB builds a frozen database shared by every goroutine of
// the stress tests: a branching graph for transitive closure and
// negation, and an employee table for choice/sampling.
func concurrencyDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	for i := 0; i < 30; i++ {
		_ = db.Add("e", Strs(fmt.Sprintf("n%03d", i), fmt.Sprintf("n%03d", i+1)))
		if i%3 == 0 {
			_ = db.Add("e", Strs(fmt.Sprintf("n%03d", i), fmt.Sprintf("b%03d", i)))
		}
	}
	for i := 0; i <= 31; i++ {
		_ = db.Add("node", Strs(fmt.Sprintf("n%03d", i)))
	}
	_ = db.Add("start", Strs("n000"))
	for d := 0; d < 5; d++ {
		for e := 0; e < 6; e++ {
			_ = db.Add("emp", Strs(fmt.Sprintf("e%d_%d", d, e), fmt.Sprintf("dept%d", d)))
		}
	}
	db.Freeze()
	return db
}

const concurrencyTC = `
	tc(X, Y) :- e(X, Y).
	tc(X, Y) :- e(X, Z), tc(Z, Y).
`

const concurrencyNeg = `
	reach(X) :- start(X).
	reach(Y) :- reach(X), e(X, Y).
	unreached(X) :- node(X), not reach(X).
`

const concurrencyChoice = `
	pick(N, D) :- emp[2](N, D, 0).
`

// fingerprintOf evaluates and fingerprints one predicate.
func fingerprintOf(t *testing.T, p *Program, db *Database, pred string, opts ...Option) string {
	t.Helper()
	res, err := p.Eval(db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res.Relation(pred).Fingerprint()
}

// TestConcurrentEvalSharedProgram runs many goroutines over ONE
// compiled program and ONE frozen database — the idlogd sharing model —
// and checks every result is identical to the sequential baseline.
// Run with -race: it exercises the lazy-index freeze/publish path.
func TestConcurrentEvalSharedProgram(t *testing.T) {
	db := concurrencyDB(t)
	tc := mustParse(t, concurrencyTC)
	neg := mustParse(t, concurrencyNeg)
	choice := mustParse(t, concurrencyChoice)

	// Sequential baselines, computed before any concurrency.
	wantTC := fingerprintOf(t, tc, db, "tc")
	wantUnreached := fingerprintOf(t, neg, db, "unreached")
	seeds := []uint64{1, 7, 42, 1000}
	wantPick := make(map[uint64]string, len(seeds))
	for _, s := range seeds {
		wantPick[s] = fingerprintOf(t, choice, db, "pick", WithSeed(s))
	}
	goalRows := func(qr *QueryResult) string {
		parts := make([]string, len(qr.Rows))
		for i, r := range qr.Rows {
			parts[i] = r.String()
		}
		sort.Strings(parts)
		return strings.Join(parts, ";")
	}
	qr, err := tc.Query(db, "tc(n000, X)")
	if err != nil {
		t.Fatal(err)
	}
	wantGoal := goalRows(qr)

	const goroutines = 16
	const iterations = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seed := seeds[g%len(seeds)]
			for i := 0; i < iterations; i++ {
				res, err := tc.Eval(db)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: tc eval: %w", g, err)
					return
				}
				if got := res.Relation("tc").Fingerprint(); got != wantTC {
					errs <- fmt.Errorf("goroutine %d: tc fingerprint diverged", g)
					return
				}
				res, err = neg.Eval(db)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: neg eval: %w", g, err)
					return
				}
				if got := res.Relation("unreached").Fingerprint(); got != wantUnreached {
					errs <- fmt.Errorf("goroutine %d: unreached fingerprint diverged", g)
					return
				}
				res, err = choice.Eval(db, WithSeed(seed))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: choice eval: %w", g, err)
					return
				}
				if got := res.Relation("pick").Fingerprint(); got != wantPick[seed] {
					errs <- fmt.Errorf("goroutine %d: seed %d pick fingerprint diverged", g, seed)
					return
				}
				qr, err := tc.Query(db, "tc(n000, X)")
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: query: %w", g, err)
					return
				}
				if got := goalRows(qr); got != wantGoal {
					errs <- fmt.Errorf("goroutine %d: goal rows diverged", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentEnumerateSharedProgram checks that concurrent
// enumerations over the shared frozen database all see the same answer
// set as a sequential enumeration.
func TestConcurrentEnumerateSharedProgram(t *testing.T) {
	// A small employee table keeps the full answer space (3^2 = 9
	// choice combinations) well inside the run budget.
	db := NewDatabase()
	for d := 0; d < 2; d++ {
		for e := 0; e < 3; e++ {
			_ = db.Add("emp", Strs(fmt.Sprintf("e%d_%d", d, e), fmt.Sprintf("dept%d", d)))
		}
	}
	db.Freeze()
	choice := mustParse(t, concurrencyChoice)

	answerSet := func(answers []*Answer) string {
		fps := make([]string, len(answers))
		for i, a := range answers {
			fps[i] = a.Relations["pick"].Fingerprint()
		}
		sort.Strings(fps)
		return strings.Join(fps, "|")
	}
	baseline, err := choice.Enumerate(db, []string{"pick"}, WithMaxRuns(2000))
	if err != nil {
		t.Fatal(err)
	}
	want := answerSet(baseline)
	if len(baseline) == 0 {
		t.Fatal("baseline enumeration found no answers")
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			answers, err := choice.Enumerate(db, []string{"pick"}, WithMaxRuns(2000))
			if err != nil {
				errs <- fmt.Errorf("goroutine %d: enumerate: %w", g, err)
				return
			}
			if got := answerSet(answers); got != want {
				errs <- fmt.Errorf("goroutine %d: answer set diverged (%d answers, want %d)",
					g, len(answers), len(baseline))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// mustParse compiles source or fails the test.
func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// paperExamples are the programs of the paper's Examples 1–8 (the §4
// rewrites of Example 6 — Examples 7 and 8 — are derived below via
// Program.Optimize, exactly as the paper derives them).
var paperExamples = []struct {
	name string
	src  string
}{
	{"ex1-man", `
		sex_guess(X, male) :- person(X).
		sex_guess(X, female) :- person(X).
		man(X) :- sex_guess[1](X, male, 1).
	`},
	{"ex2-man-woman", `
		sex_guess(X, male) :- person(X).
		sex_guess(X, female) :- person(X).
		man(X) :- sex_guess[1](X, male, 1).
		woman(X) :- sex_guess[1](X, female, 1).
	`},
	{"ex3-dl-contrast", `
		guess(X, in) :- person(X).
		guess(X, out) :- person(X).
		chosen(X) :- guess[1](X, in, 1).
	`},
	{"ex4-choice", `
		pick(N, D) :- emp(N, D), choice((D), (N)).
	`},
	{"ex5-sampling", `
		select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.
	`},
	{"ex6-reach-source", `
		q(X) :- a(X, Y).
		a(X, Y) :- p(X, Z), a(Z, Y).
		a(X, Y) :- p(X, Y).
	`},
}

// TestConcurrentPaperExamplesMatchSequential is a race-detector stress
// run: 64 goroutines evaluate the paper's Example 1–8 programs over one
// shared frozen database, and every model fingerprint must equal the
// baseline computed before any concurrency. Run with -race: it
// exercises the shared copy-on-write index publication.
func TestConcurrentPaperExamplesMatchSequential(t *testing.T) {
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

	type workload struct {
		name string
		prog *Program
		opts []Option
	}
	var workloads []workload
	for _, ex := range paperExamples {
		prog := mustParse(t, ex.src)
		workloads = append(workloads, workload{ex.name, prog, nil})
		workloads = append(workloads, workload{ex.name + "-seeded", prog, []Option{WithSeed(42)}})
	}
	// Examples 7–8: the §4 rewrite chain applied to Example 6.
	ex6 := mustParse(t, paperExamples[5].src)
	ex8, err := ex6.Optimize("q")
	if err != nil {
		t.Fatal(err)
	}
	workloads = append(workloads, workload{"ex7-8-optimized", ex8, nil})

	// Sequential baselines, one full-model fingerprint per workload.
	modelOf := func(w workload) (string, error) {
		res, err := w.prog.Eval(db, w.opts...)
		if err != nil {
			return "", fmt.Errorf("%s: %w", w.name, err)
		}
		var b strings.Builder
		for _, p := range w.prog.OutputPredicates() {
			fmt.Fprintf(&b, "%s=%s\n", p, res.Relation(p).Fingerprint())
		}
		return b.String(), nil
	}
	want := make([]string, len(workloads))
	for i, w := range workloads {
		fp, err := modelOf(w)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fp
	}

	const goroutines = 64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, w := range workloads {
				got, err := modelOf(w)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
				if got != want[i] {
					errs <- fmt.Errorf("goroutine %d: %s diverged from the baseline", g, w.name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
