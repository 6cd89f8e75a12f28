package core

import (
	"math/rand"
	"strings"
	"testing"

	"idlog/internal/analysis"
	"idlog/internal/ast"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// planFor analyzes src and returns the planned body order of the first
// clause of the last stratum as a rendered string, under a fixed
// cardinality table (pred -> size).
func planFor(t *testing.T, src string, cards map[string]int, forced int) string {
	t.Helper()
	info := mustAnalyze(t, src)
	var oc *analysis.OrderedClause
	for _, s := range info.Strata {
		for _, c := range s.Clauses {
			if oc == nil || len(c.Clause.Body) > len(oc.Clause.Body) {
				oc = c
			}
		}
	}
	body := planBody(oc.Clause.Body, forced, func(l *ast.Literal) relStats {
		if n, ok := cards[l.Atom.Pred]; ok {
			return relStats{card: float64(n)}
		}
		return relStats{card: 1000}
	})
	if body == nil {
		return "<nil>"
	}
	parts := make([]string, len(body))
	for i, l := range body {
		parts[i] = l.String()
	}
	return strings.Join(parts, ", ")
}

// TestPlanBodySelectivityOrder: the greedy planner starts with the
// smallest relation, follows bound-variable probes, and schedules
// filters (negation, builtins) as soon as they are eligible.
func TestPlanBodySelectivityOrder(t *testing.T) {
	src := `
		sel(z9).
		big1(a, b). big2(b, c).
		hit(X, Z) :- big1(X, Y), big2(Y, Z), sel(Z).
	`
	got := planFor(t, src, map[string]int{"big1": 100000, "big2": 100000, "sel": 2}, -1)
	want := "sel(Z), big2(Y, Z), big1(X, Y)"
	if got != want {
		t.Fatalf("plan = %s, want %s", got, want)
	}
}

// TestPlanBodyForcedDeltaPin: pinning a literal (the delta-first
// rotation) puts it at depth 0 and replans the rest around its
// bindings.
func TestPlanBodyForcedDeltaPin(t *testing.T) {
	src := `
		sel(z9).
		big1(a, b). big2(b, c).
		hit(X, Z) :- big1(X, Y), big2(Y, Z), sel(Z).
	`
	got := planFor(t, src, map[string]int{"big1": 100000, "big2": 100000, "sel": 2}, 1)
	if !strings.HasPrefix(got, "big2(Y, Z)") {
		t.Fatalf("forced literal not at depth 0: %s", got)
	}
	// With Z bound by big2, sel(Z) is a full-key probe and goes next.
	if got != "big2(Y, Z), sel(Z), big1(X, Y)" {
		t.Fatalf("plan = %s", got)
	}
}

// TestPlanBodyKeepsNegationAndBuiltinsSafe: negated and interpreted
// literals may never run before their variables are bound, whatever
// the cardinalities say.
func TestPlanBodyKeepsNegationAndBuiltinsSafe(t *testing.T) {
	src := `
		blk(a). e(a, b).
		r(X, S) :- e(X, Y), not blk(Y), add(X, Y, S).
	`
	got := planFor(t, src, map[string]int{"e": 1000000, "blk": 1}, -1)
	if !strings.HasPrefix(got, "e(X, Y)") {
		t.Fatalf("ineligible literal scheduled first: %s", got)
	}
}

// TestPlanBodyTieKeepsSourceOrder: equal costs preserve the written
// order, keeping plans deterministic.
func TestPlanBodyTieKeepsSourceOrder(t *testing.T) {
	src := `
		p(a, b). q(a, b).
		r(X, Y) :- p(X, Y), q(X, Y).
	`
	got := planFor(t, src, map[string]int{"p": 50, "q": 50}, -1)
	if got != "p(X, Y), q(X, Y)" {
		t.Fatalf("tie broke source order: %s", got)
	}
}

// TestPlannerMatchesNaiveOnRandomPrograms is the planner's property
// test: over random databases and a family of join-heavy programs
// (recursion, negation, builtins, ID-literals under a seeded oracle),
// planned runs, at the default worker count and with 4 workers, must
// compute the naive fixpoint, and the two must agree on every
// fingerprint.
func TestPlannerMatchesNaiveOnRandomPrograms(t *testing.T) {
	programs := []string{
		`tc(X, Y) :- e(X, Y).
		 tc(X, Y) :- e(X, Z), tc(Z, Y).`,
		`hit(X, Z) :- e(X, Y), e(Y, Z), sel(Z).`,
		`reach(X) :- start(X).
		 reach(Y) :- reach(X), e(X, Y).
		 dead(X) :- node(X), not reach(X).`,
		`sum2(X, Z, S) :- e(X, Y), e(Y, Z), add(X, Z, S), S < 9.`,
		`pick(X) :- e[1](X, Y, 0).
		 pair(X, Z) :- pick(X), e(X, Z).`,
	}
	rng := rand.New(rand.NewSource(99))
	for pi, src := range programs {
		info := mustAnalyze(t, src)
		for trial := 0; trial < 6; trial++ {
			db := NewDatabase()
			for i := 0; i < 4+rng.Intn(20); i++ {
				_ = db.Add("e", value.Ints(int64(rng.Intn(6)), int64(rng.Intn(6))))
			}
			_ = db.Add("sel", value.Ints(int64(rng.Intn(6))))
			_ = db.Add("start", value.Ints(0))
			for i := 0; i < 6; i++ {
				_ = db.Add("node", value.Ints(int64(i)))
			}
			db.Freeze()
			oracle := relation.RandomOracle{Seed: uint64(trial)}
			naive, _, err := naiveModel(info, db, oracle)
			if err != nil {
				t.Fatal(err)
			}
			var first *Result
			for _, workers := range []int{0, 4} {
				res, err := Eval(info, db, Options{Oracle: oracle, Parallelism: workers})
				if err != nil {
					t.Fatalf("program %d trial %d workers %d: %v", pi, trial, workers, err)
				}
				for p := range info.IDB {
					if !res.Relation(p).Equal(naive[p]) {
						t.Fatalf("program %d trial %d workers %d: %s differs from the naive fixpoint\nsrc: %s",
							pi, trial, workers, p, src)
					}
					if first != nil && res.Relation(p).Fingerprint() != first.Relation(p).Fingerprint() {
						t.Fatalf("program %d trial %d: workers %d fingerprint of %s differs from the default run",
							pi, trial, workers, p)
					}
				}
				first = res
			}
		}
	}
}

// TestExplainPlanRendersProbesAndDeltas exercises the core ExplainPlan
// renderer directly.
func TestExplainPlanRendersProbesAndDeltas(t *testing.T) {
	info := mustAnalyze(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- tc(X, Y), e(Y, Z).
	`)
	db := NewDatabase()
	_ = db.AddAll("e", value.Ints(1, 2), value.Ints(2, 3))
	out, err := ExplainPlan(info, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stratum 0", "plan:", "[delta scan]", "[probe (0) ~", "delta tc:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ExplainPlan missing %q:\n%s", want, out)
		}
	}
}

// TestPlanReordersCounter: evaluating an adversarially ordered body
// with the planner on must bump the process-global reorder counter.
func TestPlanReordersCounter(t *testing.T) {
	info := mustAnalyze(t, `hit(X, Z) :- e(X, Y), e(Y, Z), sel(Z).`)
	db := NewDatabase()
	for i := 0; i < 50; i++ {
		_ = db.Add("e", value.Ints(int64(i%7), int64((i+1)%7)))
	}
	_ = db.Add("sel", value.Ints(3))
	before := PlanReordersTotal()
	if _, err := Eval(info, db, Options{}); err != nil {
		t.Fatal(err)
	}
	if PlanReordersTotal() <= before {
		t.Fatal("planner reordered nothing on an adversarial body")
	}
}

// TestPlanCacheMastersHoldNoCursors: a sequential run evaluates its own
// plans, whose streaming cursors end up pointing into that run's
// relations. The plans it publishes to the cache must be clean copies,
// or every cache entry would keep a finished evaluation alive.
func TestPlanCacheMastersHoldNoCursors(t *testing.T) {
	info := mustAnalyze(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- tc(X, Y), e(Y, Z).
		ans(Y) :- tc(1, Y).
	`)
	db := NewDatabase()
	for i := 0; i < 20; i++ {
		_ = db.Add("e", value.Ints(int64(i), int64(i+1)))
	}
	db.Freeze()
	pc := NewPlanCache(0)
	for run := 0; run < 2; run++ { // a miss that publishes, then a hit
		if _, err := Eval(info, db, Options{Parallelism: 1, PlanCache: pc}); err != nil {
			t.Fatal(err)
		}
		if hits, misses := pc.Stats(); hits != uint64(run) || misses != 1 {
			t.Fatalf("run %d: cache hits/misses = %d/%d", run, hits, misses)
		}
		masters := 0
		for _, el := range pc.items {
			for _, comps := range el.Value.(*planEntry).plans {
				for _, sp := range comps {
					for _, cc := range sp.all {
						masters++
						if cc.iters != nil {
							t.Fatalf("run %d: cached master %s holds cursor state", run, cc.srcText)
						}
					}
				}
			}
		}
		if masters == 0 {
			t.Fatalf("run %d: nothing cached", run)
		}
	}
}

// TestComponentsPlannedOnTheirOwnCardinalities: a stratum whose
// components feed each other plans each component after the previous
// ones ran, so a small upstream component is priced at its real size.
func TestComponentsPlannedOnTheirOwnCardinalities(t *testing.T) {
	info := mustAnalyze(t, `
		start(0).
		reach(Y) :- start(X), e(X, Y).
		reach(Y) :- reach(X), e(X, Y).
	`)
	if len(info.Strata) != 1 || len(info.Strata[0].Components) != 2 {
		t.Fatalf("want one stratum of two components, got %d strata", len(info.Strata))
	}
	db := NewDatabase()
	for i := 0; i < 500; i++ {
		_ = db.Add("e", value.Ints(int64(i), int64(i+1)))
	}
	out, err := ExplainPlan(info, db, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"  component 0: start\n",
		"  component 1: reach\n",
		"plan: start(X) [scan ~1] ; e(X, Y) [probe (0) ~",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("ExplainPlan missing %q:\n%s", want, out)
		}
	}
}
