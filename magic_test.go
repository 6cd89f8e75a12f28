package idlog

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randMagicDB builds a random e/2 edge relation plus a blocked/1
// relation over a small constant domain.
func randMagicDB(t *testing.T, r *rand.Rand) *Database {
	t.Helper()
	db := NewDatabase()
	domain := 10
	edges := 15 + r.Intn(20)
	for i := 0; i < edges; i++ {
		_ = db.Add("e", Strs(fmt.Sprintf("c%d", r.Intn(domain)), fmt.Sprintf("c%d", r.Intn(domain))))
	}
	for i := 0; i < 3; i++ {
		_ = db.Add("blocked", Strs(fmt.Sprintf("c%d", r.Intn(domain))))
	}
	return db
}

// randMagicProgram assembles a random rulebase over e/2 and blocked/1:
// a base step, a recursive closure (shape drawn at random), a
// same-generation predicate, filtered views (comparisons, negation over
// the base relation), and junk rules outside any goal's cone.
func randMagicProgram(r *rand.Rand) string {
	src := "t0(X, Y) :- e(X, Y).\n"
	if r.Intn(2) == 0 {
		src += "t0(X, Y) :- e(Y, X).\n"
	}
	src += "t1(X, Y) :- t0(X, Y).\n"
	switch r.Intn(3) {
	case 0: // left-linear
		src += "t1(X, Y) :- t1(X, Z), t0(Z, Y).\n"
	case 1: // right-linear
		src += "t1(X, Y) :- t0(X, Z), t1(Z, Y).\n"
	default: // nonlinear
		src += "t1(X, Y) :- t1(X, Z), t1(Z, Y).\n"
	}
	src += `
		sg(X, Y) :- e(Z, X), e(Z, Y).
		sg(X, Y) :- e(Z, X), sg(Z, W), e(W, Y).
		q(X, Y) :- t1(X, Y), X != Y.
		qn(X, Y) :- t1(X, Y), not blocked(Y).
		junk(X) :- e(X, X), junk2(X).
		junk2(X) :- e(X, X).
	`
	return src
}

// randMagicGoals draws goal bodies covering bound-first, bound-second,
// ground, and free binding patterns over the random program's derived
// predicates.
func randMagicGoals(r *rand.Rand) []string {
	c := func() string { return fmt.Sprintf("c%d", r.Intn(10)) }
	return []string{
		fmt.Sprintf("t1(%s, Y)", c()),
		fmt.Sprintf("t1(X, %s)", c()),
		fmt.Sprintf("t1(%s, %s)", c(), c()),
		fmt.Sprintf("sg(%s, Y)", c()),
		fmt.Sprintf("q(%s, Y)", c()),
		fmt.Sprintf("qn(%s, Y)", c()),
		"t1(X, Y)", // free: exercises the fallback path
		fmt.Sprintf("t1(%s, Y), Y != %s", c(), c()),
	}
}

// TestMagicDifferentialRandom is the magic-on vs magic-off property
// suite: random programs, random databases, random goal binding
// patterns — every answer set must be identical with the demand
// rewrite active and inactive, sequentially and on 4 workers. Run
// under -race it also exercises the rewrite's shared plan cache; the
// CI disk-engine job repeats it against disk-backed EDBs via
// IDLOG_ENGINE=disk.
func TestMagicDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			prog := mustParse(t, randMagicProgram(r))
			db := randMagicDB(t, r)
			for _, goal := range randMagicGoals(r) {
				pq, err := prog.Prepare(goal)
				if err != nil {
					t.Fatalf("prepare %q: %v", goal, err)
				}
				for _, workers := range []int{1, 4} {
					opts := []Option{WithParallelism(workers)}
					off, err := pq.Query(db, append(opts, WithMagic(false))...)
					if err != nil {
						t.Fatalf("goal %q magic-off: %v", goal, err)
					}
					on, err := pq.Query(db, opts...)
					if err != nil {
						t.Fatalf("goal %q magic-on: %v", goal, err)
					}
					if off.UsedMagic {
						t.Fatalf("goal %q: WithMagic(false) run reports UsedMagic", goal)
					}
					if on.UsedMagic != pq.UsesMagic() {
						t.Fatalf("goal %q: UsedMagic=%v but UsesMagic=%v", goal, on.UsedMagic, pq.UsesMagic())
					}
					if !reflect.DeepEqual(off.Vars, on.Vars) || !reflect.DeepEqual(off.Rows, on.Rows) {
						t.Fatalf("goal %q (workers=%d): answers diverge\nmagic off: %v %v\nmagic on:  %v %v",
							goal, workers, off.Vars, off.Rows, on.Vars, on.Rows)
					}
				}
			}
		})
	}
}

// TestMagicPaperExamples runs goal queries against the paper's Example
// 1–8 programs with the rewrite on and off. The choice/ID examples sit
// outside the sound fragment (ID-literals in the cone), so they must
// fall back — and produce identical answers; Example 6 is pure Datalog,
// so its bound goal must take the demand path.
func TestMagicPaperExamples(t *testing.T) {
	db := NewDatabase()
	for i := 0; i < 5; i++ {
		_ = db.Add("person", Strs(fmt.Sprintf("p%d", i)))
	}
	for d := 0; d < 3; d++ {
		for e := 0; e < 4; e++ {
			_ = db.Add("emp", Strs(fmt.Sprintf("e%d_%d", d, e), fmt.Sprintf("dept%d", d)))
		}
	}
	for i := 0; i < 20; i++ {
		_ = db.Add("p", Strs(fmt.Sprintf("v%02d", i), fmt.Sprintf("v%02d", i+1)))
	}
	goals := map[string][]string{
		"ex1-man":         {"man(p1)", "man(X)"},
		"ex2-man-woman":   {"man(p1)", "woman(X)"},
		"ex3-dl-contrast": {"chosen(p2)", "chosen(X)"},
		"ex4-choice":      {"pick(N, dept1)", "pick(N, D)"},
		"ex5-sampling":    {"select_two_emp(Name)"},
		"ex6-reach-source": {
			"q(v05)", "a(v05, Y)", "a(X, v07)",
		},
	}
	for _, ex := range paperExamples {
		prog := mustParse(t, ex.src)
		for _, goal := range goals[ex.name] {
			pq, err := prog.Prepare(goal)
			if err != nil {
				t.Fatalf("%s: prepare %q: %v", ex.name, goal, err)
			}
			off, err := pq.Query(db, WithMagic(false))
			if err != nil {
				t.Fatalf("%s %q magic-off: %v", ex.name, goal, err)
			}
			on, err := pq.Query(db)
			if err != nil {
				t.Fatalf("%s %q magic-on: %v", ex.name, goal, err)
			}
			if !reflect.DeepEqual(off.Vars, on.Vars) || !reflect.DeepEqual(off.Rows, on.Rows) {
				t.Fatalf("%s %q: answers diverge\nmagic off: %v %v\nmagic on:  %v %v",
					ex.name, goal, off.Vars, off.Rows, on.Vars, on.Rows)
			}
			if ex.name != "ex6-reach-source" && pq.UsesMagic() {
				t.Fatalf("%s %q: ID-bearing cone should fall back", ex.name, goal)
			}
		}
	}
	// Example 6's bound goal must actually take the demand path.
	prog := mustParse(t, paperExamples[5].src)
	pq, err := prog.Prepare("a(v05, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !pq.UsesMagic() {
		t.Fatal("ex6 bound goal should use magic")
	}
	qr, err := pq.Query(db)
	if err != nil {
		t.Fatal(err)
	}
	if !qr.UsedMagic || len(qr.Rows) != 15 {
		t.Fatalf("ex6 a(v05, Y): UsedMagic=%v rows=%d, want true/15", qr.UsedMagic, len(qr.Rows))
	}
}

// TestMagicFallbackAndToggles pins the fallback matrix end to end:
// inapplicable goals report UsesMagic()==false and still answer; the
// WithMagic(false) and WithTrace escape hatches bypass an applicable
// rewrite; ExplainPlan labels each mode.
func TestMagicFallbackAndToggles(t *testing.T) {
	prog := mustParse(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	db := NewDatabase()
	for i := 0; i < 50; i++ {
		_ = db.Add("e", Ints(int64(i), int64(i+1)))
	}

	bound, err := prog.Prepare("tc(40, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !bound.UsesMagic() {
		t.Fatal("bound goal should admit the rewrite")
	}
	free, err := prog.Prepare("tc(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if free.UsesMagic() {
		t.Fatal("free goal should fall back")
	}
	fqr, err := free.Query(db)
	if err != nil {
		t.Fatal(err)
	}
	if fqr.UsedMagic || len(fqr.Rows) != 50*51/2 {
		t.Fatalf("free goal: UsedMagic=%v rows=%d", fqr.UsedMagic, len(fqr.Rows))
	}

	on, err := bound.Query(db)
	if err != nil {
		t.Fatal(err)
	}
	off, err := bound.Query(db, WithMagic(false))
	if err != nil {
		t.Fatal(err)
	}
	traced, err := bound.Query(db, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if !on.UsedMagic || off.UsedMagic || traced.UsedMagic {
		t.Fatalf("toggle states wrong: on=%v off=%v traced=%v", on.UsedMagic, off.UsedMagic, traced.UsedMagic)
	}
	for _, qr := range []*QueryResult{off, traced} {
		if !reflect.DeepEqual(qr.Rows, on.Rows) {
			t.Fatalf("rows diverge across toggles")
		}
	}
	// The demand run derives only the cone past node 40; the full run
	// derives the whole closure.
	if on.Stats.Derivations*5 >= off.Stats.Derivations {
		t.Fatalf("expected >=5x fewer derivations with magic: on=%d off=%d",
			on.Stats.Derivations, off.Stats.Derivations)
	}

	plan, err := bound.ExplainPlan(db)
	if err != nil {
		t.Fatal(err)
	}
	if want := "magic-sets rewrite active"; !containsAll(plan, want, "tc__bf", "m__tc__bf") {
		t.Fatalf("magic plan missing rewritten rules:\n%s", plan)
	}
	planOff, err := bound.ExplainPlan(db, WithMagic(false))
	if err != nil {
		t.Fatal(err)
	}
	if !containsAll(planOff, "rewrite available but disabled") {
		t.Fatalf("disabled plan missing header:\n%s", planOff)
	}
	planFree, err := free.ExplainPlan(db)
	if err != nil {
		t.Fatal(err)
	}
	if !containsAll(planFree, "full evaluation", "binds no argument") {
		t.Fatalf("fallback plan missing reason:\n%s", planFree)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// TestMagicPointQueryCostsItsCone pins what a bound point query over a
// large EDB costs. The magic rewrite puts m__tc__bf, tc__bf and the
// answer predicate in one stratum; evaluated component by component,
// the one-tuple magic relation is planned at its real size, so the seed
// plans open with it instead of scanning edge, and every delta round is
// far below the parallel gate, so none is partitioned.
func TestMagicPointQueryCostsItsCone(t *testing.T) {
	prog := mustParse(t, `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
	`)
	// 64 chains of 64 nodes, each node with three private leaves:
	// 16 320 edges, of which the goal's cone reaches 255 nodes.
	db := NewDatabase()
	node := func(c, j int) string { return fmt.Sprintf("c%dn%d", c, j) }
	for c := 0; c < 64; c++ {
		for j := 0; j < 64; j++ {
			if j+1 < 64 {
				_ = db.Add("edge", Strs(node(c, j), node(c, j+1)))
			}
			for k := 0; k < 3; k++ {
				_ = db.Add("edge", Strs(node(c, j), fmt.Sprintf("%sl%d", node(c, j), k)))
			}
		}
	}
	db.Freeze()
	if n := db.Relation("edge").Len(); n < 16000 {
		t.Fatalf("forest has %d edges, want ≥ 16000", n)
	}
	pq, err := prog.Prepare("tc(c5n0, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Strata() != 1 || pq.magicProg.Strata() != 1 {
		t.Fatalf("strata: source %d, rewritten %d, want 1 and 1", prog.Strata(), pq.magicProg.Strata())
	}
	for _, workers := range []int{1, 2} {
		qr, err := pq.Query(db, WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !qr.UsedMagic || len(qr.Rows) != 255 {
			t.Fatalf("workers=%d: UsedMagic=%v rows=%d, want true/255", workers, qr.UsedMagic, len(qr.Rows))
		}
		if qr.Stats.PartitionedRounds != 0 {
			t.Fatalf("workers=%d: %d partitioned rounds on a 4-tuple-per-round cone", workers, qr.Stats.PartitionedRounds)
		}
		if limit := 8 * len(qr.Rows); qr.Stats.TuplesScanned > limit {
			t.Fatalf("workers=%d: scanned %d tuples for a %d-row cone, want ≤ %d",
				workers, qr.Stats.TuplesScanned, len(qr.Rows), limit)
		}
	}
	plan, err := pq.ExplainPlan(db, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if !containsAll(plan, "component 0: m__tc__bf", "plan: m__tc__bf(X) [scan ~1] ; edge(X, Y) [probe (0) ~",
		"rounds with delta ≥ ") {
		t.Fatalf("seed plan does not open with the magic relation:\n%s", plan)
	}
	if strings.Contains(plan, "edge(X, Y) [scan") {
		t.Fatalf("plan scans edge:\n%s", plan)
	}
}
