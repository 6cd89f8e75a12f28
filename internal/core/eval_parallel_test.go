package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"idlog/internal/analysis"
	"idlog/internal/guard"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// parallelDB builds a database big enough that every clause shape
// shards: a two-component graph, node table, and employee table.
func parallelDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	for i := 0; i < 120; i++ {
		_ = db.Add("e", value.Strs(fmt.Sprintf("n%03d", i), fmt.Sprintf("n%03d", i+1)))
		if i%4 == 0 {
			_ = db.Add("e", value.Strs(fmt.Sprintf("n%03d", i), fmt.Sprintf("m%03d", i)))
		}
	}
	for i := 0; i <= 121; i++ {
		_ = db.Add("node", value.Strs(fmt.Sprintf("n%03d", i)))
	}
	_ = db.Add("start", value.Strs("n000"))
	for d := 0; d < 6; d++ {
		for e := 0; e < 8; e++ {
			_ = db.Add("emp", value.Strs(fmt.Sprintf("e%d_%d", d, e), fmt.Sprintf("dept%d", d)))
		}
	}
	return db
}

const parallelPrograms = `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
reach(X) :- start(X).
reach(Y) :- reach(X), e(X, Y).
unreached(X) :- node(X), not reach(X).
pick(N, D) :- emp[2](N, D, 0).
`

// modelFingerprint renders every program relation canonically.
func modelFingerprint(res *Result, info *analysis.Info) string {
	preds := make([]string, 0, len(info.IDB))
	for p := range info.IDB {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	var b strings.Builder
	for _, p := range preds {
		b.WriteString(p)
		b.WriteString("=")
		b.WriteString(res.Relation(p).Fingerprint())
		b.WriteString("\n")
	}
	return b.String()
}

// addDenseGraph adds to db, as e, a 128-node graph whose nodes each have
// three out-edges. Its closure's widest delta rounds (about 5.4k tuples)
// clear minParallelDelta, so those rounds fan out over the workers
// instead of running inline.
func addDenseGraph(t *testing.T, db *Database) {
	t.Helper()
	const n = 128
	name := func(i int) string { return fmt.Sprintf("g%03d", i%n) }
	for i := 0; i < n; i++ {
		if err := db.AddAll("e", value.Strs(name(i), name(i+1)),
			value.Strs(name(i), name(3*i+1)), value.Strs(name(i), name(7*i+2))); err != nil {
			t.Fatal(err)
		}
	}
}

// nonlinearProgram closes ch by doubling: its recursive clause reads
// nl twice, so a direct round that let the literal away from the delta
// see the tuples the round inserts would derive more than a fanned-out
// round, which reads the round-start state.
const nonlinearProgram = `
nl(X, Y) :- ch(X, Y).
nl(X, Y) :- nl(X, Z), nl(Z, Y).
`

// addChains adds to db, as ch, 600 disjoint chains of 8 nodes. The
// doubling closure of nonlinearProgram then reads deltas of 4200, 3600,
// 5400 and 3600 tuples (paths of length 1, 2, 3–4 and 5–7), so its
// delta rounds alternate between fanned-out and direct.
func addChains(t *testing.T, db *Database) {
	t.Helper()
	for c := 0; c < 600; c++ {
		for i := 0; i < 7; i++ {
			if err := db.Add("ch", value.Strs(fmt.Sprintf("c%d_%d", c, i), fmt.Sprintf("c%d_%d", c, i+1))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// closureRound describes one semi-naive round of the closure
// tc(X, Y) :- e(X, Y). tc(X, Y) :- tc(X, Z), e(Z, Y) (or its
// right-linear twin, which makes the same number of derivations per
// round on a graph read in both directions): the delta it reads (0 for
// the seed round), the tuples it inserts and the derivations it makes.
type closureRound struct {
	delta, inserted, derivations int
}

// closureRounds computes the rounds of the left-linear closure of
// relation e from shortest-path distances, independently of the engine:
// round 0 is the seed round, and round r ≥ 1 reads the pairs at
// distance r as its delta and inserts the pairs at distance r+1.
func closureRounds(db *Database) []closureRound {
	succ := map[string][]string{}
	db.Relation("e").Scan(0, -1, func(_ int, t value.Tuple) bool {
		succ[t[0].String()] = append(succ[t[0].String()], t[1].String())
		return true
	})
	perDist := map[int]int{}    // pairs at each distance
	derivsFrom := map[int]int{} // Σ out-degree of the targets of those pairs
	for src := range succ {
		dist := map[string]int{}
		frontier := []string{src}
		for d := 1; len(frontier) > 0; d++ {
			var next []string
			for _, x := range frontier {
				for _, y := range succ[x] {
					if _, ok := dist[y]; !ok {
						dist[y] = d
						perDist[d]++
						derivsFrom[d] += len(succ[y])
						next = append(next, y)
					}
				}
			}
			frontier = next
		}
	}
	edges := db.Relation("e").Len()
	rounds := []closureRound{{inserted: perDist[1], derivations: edges}}
	for r := 1; perDist[r] > 0; r++ {
		rounds = append(rounds, closureRound{delta: perDist[r], inserted: perDist[r+1], derivations: derivsFrom[r]})
	}
	return rounds
}

// fansOut reports whether round r of a closure fans out at two or more
// workers: seed rounds always do, delta rounds from minParallelDelta.
func fansOut(rounds []closureRound, r int) bool {
	return r == 0 || rounds[r].delta >= minParallelDelta
}

// TestParallelMatchesSequential checks that the worker count changes
// nothing but the wall clock: byte-identical models, every Stats count
// equal, and the same insertion order (Tuples) at every worker count.
// The dense graph gives the tc closure delta rounds on both sides of
// minParallelDelta, and so do the chains the nonlinear closure, so one
// evaluation at two or more workers runs both direct and fanned-out
// rounds.
func TestParallelMatchesSequential(t *testing.T) {
	info := mustAnalyze(t, parallelPrograms+nonlinearProgram)
	denseDB := func() *Database {
		db := parallelDB(t)
		addDenseGraph(t, db)
		addChains(t, db)
		return db
	}
	var direct, fanned int
	rounds := closureRounds(denseDB())
	for r := 1; r < len(rounds); r++ {
		if fansOut(rounds, r) {
			fanned++
		} else {
			direct++
		}
	}
	if direct == 0 || fanned == 0 {
		t.Fatalf("closure rounds %+v: want delta rounds both under and over minParallelDelta %d", rounds, minParallelDelta)
	}
	seqRes, err := Eval(info, denseDB(), Options{
		Oracle: relation.RandomOracle{Seed: 42}, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := modelFingerprint(seqRes, info)
	wantOrder := map[string][]string{}
	for _, p := range []string{"tc", "nl"} {
		for _, tup := range seqRes.Relation(p).Tuples() {
			wantOrder[p] = append(wantOrder[p], tup.String())
		}
	}
	for _, workers := range []int{2, 3, 4, 8} {
		res, err := Eval(info, denseDB(), Options{
			Oracle: relation.RandomOracle{Seed: 42}, Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := modelFingerprint(res, info); got != want {
			t.Fatalf("workers=%d: model diverged from sequential", workers)
		}
		if res.Stats != seqRes.Stats {
			t.Fatalf("workers=%d: stats %v, sequential %v", workers, res.Stats, seqRes.Stats)
		}
		for _, p := range []string{"tc", "nl"} {
			order := res.Relation(p).Tuples()
			if len(order) != len(wantOrder[p]) {
				t.Fatalf("workers=%d: %s insertion-order length diverged", workers, p)
			}
			for i := range order {
				if order[i].String() != wantOrder[p][i] {
					t.Fatalf("workers=%d: %s insertion order diverged at %d", workers, p, i)
				}
			}
		}
	}
}

// TestParallelBudgetsAcrossRoundKinds trips the tuple and derivation
// budgets a few units into a direct round that follows a fanned-out
// round, and into a fanned-out round that follows a direct one: either
// way the run stops exactly at the budget, and the guard's ledger
// agrees with the run's counters.
func TestParallelBudgetsAcrossRoundKinds(t *testing.T) {
	info := mustAnalyze(t, "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- tc(X, Z), e(Z, Y).\n")
	denseDB := func() *Database {
		db := NewDatabase()
		addDenseGraph(t, db)
		return db
	}
	rounds := closureRounds(denseDB())
	// landing[k] is the round a budget trips in.
	landing := map[string]int{}
	for r := 1; r+1 < len(rounds); r++ {
		if _, ok := landing["direct after fanned"]; !ok && fansOut(rounds, r) && !fansOut(rounds, r+1) {
			landing["direct after fanned"] = r + 1
		}
		if _, ok := landing["fanned after direct"]; !ok && !fansOut(rounds, r) && fansOut(rounds, r+1) {
			landing["fanned after direct"] = r + 1
		}
	}
	if len(landing) != 2 {
		t.Fatalf("closure rounds %+v: want a direct round after a fanned-out one and the reverse", rounds)
	}
	t.Logf("closure rounds %+v; budgets land in rounds %v", rounds, landing)
	for kind, k := range landing {
		var inserted, derivations int
		for _, rd := range rounds[:k] {
			inserted += rd.inserted
			derivations += rd.derivations
		}
		const into = 5 // units into round k: far fewer than any task makes
		for _, workers := range []int{2, 4} {
			g := guard.New(nil, guard.Limits{MaxTuples: inserted + into})
			res, err := Eval(info, denseDB(), Options{Parallelism: workers, Guard: g})
			if err == nil || !res.Incomplete {
				t.Fatalf("%s, workers=%d: tuple budget %d did not trip", kind, workers, inserted+into)
			}
			if _, tuples := g.Usage(); tuples != inserted+into || res.Stats.Inserted != inserted+into {
				t.Fatalf("%s, workers=%d: tuple budget %d, guard holds %d, inserted %d",
					kind, workers, inserted+into, tuples, res.Stats.Inserted)
			}
			if res.Stats.Iterations != k+1 {
				t.Fatalf("%s, workers=%d: tuple budget tripped in round %d, want %d", kind, workers, res.Stats.Iterations-1, k)
			}

			g = guard.New(nil, guard.Limits{MaxDerivations: derivations + into})
			res, err = Eval(info, denseDB(), Options{Parallelism: workers, Guard: g})
			if err == nil || !res.Incomplete {
				t.Fatalf("%s, workers=%d: derivation budget %d did not trip", kind, workers, derivations+into)
			}
			if d, _ := g.Usage(); d != derivations+into || res.Stats.Derivations != derivations+into {
				t.Fatalf("%s, workers=%d: derivation budget %d, guard holds %d, derivations %d",
					kind, workers, derivations+into, d, res.Stats.Derivations)
			}
			if res.Stats.Iterations != k+1 {
				t.Fatalf("%s, workers=%d: derivation budget tripped in round %d, want %d", kind, workers, res.Stats.Iterations-1, k)
			}
		}
	}
}

// TestParallelStatsConsistent checks the merged counters still satisfy
// the core invariants (inserted ≤ derivations; derivations ≥ model).
func TestParallelStatsConsistent(t *testing.T) {
	info := mustAnalyze(t, parallelPrograms)
	res, err := Eval(info, parallelDB(t), Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Inserted > res.Stats.Derivations {
		t.Fatalf("inserted %d > derivations %d", res.Stats.Inserted, res.Stats.Derivations)
	}
	if res.Stats.Inserted != seqInserted(t, info) {
		t.Fatalf("parallel inserted %d != sequential %d", res.Stats.Inserted, seqInserted(t, info))
	}
}

func seqInserted(t *testing.T, info *analysis.Info) int {
	t.Helper()
	res, err := Eval(info, parallelDB(t), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats.Inserted
}

// TestParallelBudgets checks governance through the parallel path: the
// tuple and derivation budgets trip exactly, and a tripped run returns
// the typed error with a partial model.
func TestParallelBudgets(t *testing.T) {
	info := mustAnalyze(t, parallelPrograms)

	g := guard.New(nil, guard.Limits{MaxTuples: 50})
	res, err := Eval(info, parallelDB(t), Options{Parallelism: 4, Guard: g})
	if err == nil {
		t.Fatalf("tuple budget did not trip")
	}
	if !res.Incomplete {
		t.Fatalf("tripped run not marked incomplete")
	}
	if _, tuples := g.Usage(); tuples != 50 {
		t.Fatalf("tuple budget inexact under parallelism: %d held, want 50", tuples)
	}

	g = guard.New(nil, guard.Limits{MaxDerivations: 300})
	_, err = Eval(info, parallelDB(t), Options{Parallelism: 4, Guard: g})
	if err == nil {
		t.Fatalf("derivation budget did not trip")
	}
	if d, _ := g.Usage(); d != 300 {
		t.Fatalf("derivation budget inexact under parallelism: %d derivations, want 300", d)
	}
}

// TestParallelPanicRecovered checks a worker panic (injected fault)
// converts to a typed Internal/ResourceExhausted error, not a crash.
func TestParallelPanicRecovered(t *testing.T) {
	info := mustAnalyze(t, parallelPrograms)
	g := guard.New(nil, guard.Limits{})
	g.Inject(guard.FailAfter(100))
	res, err := Eval(info, parallelDB(t), Options{Parallelism: 4, Guard: g})
	if err == nil {
		t.Fatalf("injected fault vanished")
	}
	if res == nil || !res.Incomplete {
		t.Fatalf("fault did not produce a partial result")
	}
}

// TestParallelNonRecursiveStratum covers the single-round scheduling
// path (Component.Recursive false) under parallelism.
func TestParallelNonRecursiveStratum(t *testing.T) {
	info := mustAnalyze(t, `
		big(X, Y) :- e(X, Y).
		pair(X, Y) :- big(X, Y), node(X).
	`)
	seq, err := Eval(info, parallelDB(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Eval(info, parallelDB(t), Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Relation("pair").Fingerprint() != par.Relation("pair").Fingerprint() {
		t.Fatalf("non-recursive stratum diverged under parallelism")
	}
	if seq.Stats.Inserted != par.Stats.Inserted {
		t.Fatalf("inserted: seq %d, par %d", seq.Stats.Inserted, par.Stats.Inserted)
	}
}
