package core

import (
	"fmt"
	"testing"

	"idlog/internal/guard"
	"idlog/internal/value"
)

const closureProgram = `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- tc(X, Z), e(Z, Y).
`

// addDenseGraph adds to db, as e, a 128-node graph whose nodes each have
// three out-edges, so its closure runs rounds of very different widths.
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

// closureRound describes one semi-naive round of closureProgram: the
// delta it reads (0 for the seed round), the tuples it inserts and the
// derivations it makes.
type closureRound struct {
	delta, inserted, derivations int
}

// closureRounds computes the rounds of closureProgram over relation e
// from shortest-path distances, independently of the engine: round 0 is
// the seed round, and round r ≥ 1 reads the pairs at distance r as its
// delta and inserts the pairs at distance r+1.
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

func denseDB(t *testing.T) *Database {
	db := NewDatabase()
	addDenseGraph(t, db)
	return db
}

// TestClosureRoundsExact checks the fixpoint's counts against the
// rounds computed from shortest paths: one iteration per round, and
// exactly the derivations and insertions each round owes.
func TestClosureRoundsExact(t *testing.T) {
	info := mustAnalyze(t, closureProgram)
	rounds := closureRounds(denseDB(t))
	var want Stats
	for _, rd := range rounds {
		want.Derivations += rd.derivations
		want.Inserted += rd.inserted
	}
	want.Iterations = len(rounds)
	res, err := Eval(info, denseDB(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Stats
	if got.Derivations != want.Derivations || got.Inserted != want.Inserted || got.Iterations != want.Iterations {
		t.Fatalf("closure rounds %+v: stats %+v, want %d derivations, %d inserted, %d iterations",
			rounds, got, want.Derivations, want.Inserted, want.Iterations)
	}
}

// TestBudgetsTripMidRound trips the tuple and the derivation budget a
// few units into each delta round: the run stops in that round, exactly
// at the budget, and the guard's ledger agrees with the run's counters.
func TestBudgetsTripMidRound(t *testing.T) {
	info := mustAnalyze(t, closureProgram)
	rounds := closureRounds(denseDB(t))
	const into = 5 // units into round k
	var inserted, derivations int
	for k := 1; k < len(rounds); k++ {
		inserted += rounds[k-1].inserted
		derivations += rounds[k-1].derivations
		if rounds[k].inserted <= into {
			continue
		}
		g := guard.New(nil, guard.Limits{MaxTuples: inserted + into})
		res, err := Eval(info, denseDB(t), Options{Guard: g})
		if err == nil || !res.Incomplete {
			t.Fatalf("round %d: tuple budget %d did not trip", k, inserted+into)
		}
		if _, tuples := g.Usage(); tuples != inserted+into || res.Stats.Inserted != inserted+into {
			t.Fatalf("round %d: tuple budget %d, guard holds %d, inserted %d",
				k, inserted+into, tuples, res.Stats.Inserted)
		}
		if res.Stats.Iterations != k+1 {
			t.Fatalf("tuple budget for round %d tripped in round %d", k, res.Stats.Iterations-1)
		}

		g = guard.New(nil, guard.Limits{MaxDerivations: derivations + into})
		res, err = Eval(info, denseDB(t), Options{Guard: g})
		if err == nil || !res.Incomplete {
			t.Fatalf("round %d: derivation budget %d did not trip", k, derivations+into)
		}
		if d, _ := g.Usage(); d != derivations+into || res.Stats.Derivations != derivations+into {
			t.Fatalf("round %d: derivation budget %d, guard holds %d, derivations %d",
				k, derivations+into, d, res.Stats.Derivations)
		}
		if res.Stats.Iterations != k+1 {
			t.Fatalf("derivation budget for round %d tripped in round %d", k, res.Stats.Iterations-1)
		}
	}
}

// TestNonlinearRoundsReadRoundStartState closes chains by doubling,
// whose recursive clause reads nl at two positions. Each of its delta
// units reads the round's delta at one position and, at the other, nl
// as it stood when the round began (runner.frontier), not the tuples
// the round's earlier unit inserted. The derivation count is checked
// against a simulation of exactly those rounds.
func TestNonlinearRoundsReadRoundStartState(t *testing.T) {
	info := mustAnalyze(t, `
		nl(X, Y) :- ch(X, Y).
		nl(X, Y) :- nl(X, Z), nl(Z, Y).
	`)
	db := NewDatabase()
	type pair struct{ a, b string }
	var ch []pair
	for c := 0; c < 40; c++ {
		for i := 0; i < 8; i++ {
			p := pair{fmt.Sprintf("c%d_%d", c, i), fmt.Sprintf("c%d_%d", c, i+1)}
			ch = append(ch, p)
			if err := db.Add("ch", value.Strs(p.a, p.b)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Simulate the rounds: the seed round fires the exit clause once
	// per ch tuple; a delta round joins delta ⋈ full and full ⋈ delta,
	// full as of the round's start.
	full := map[pair]bool{}
	for _, p := range ch {
		full[p] = true
	}
	delta := ch
	derivations, iterations := len(ch), 1
	for len(delta) > 0 {
		iterations++
		from := map[string][]string{}
		to := map[string][]string{}
		for p := range full {
			from[p.a] = append(from[p.a], p.b)
			to[p.b] = append(to[p.b], p.a)
		}
		var next []pair
		add := func(p pair) {
			derivations++
			if !full[p] {
				full[p] = true
				next = append(next, p)
			}
		}
		for _, d := range delta { // nl(X, Z) from the delta
			for _, y := range from[d.b] {
				add(pair{d.a, y})
			}
		}
		for _, d := range delta { // nl(Z, Y) from the delta
			for _, x := range to[d.a] {
				add(pair{x, d.b})
			}
		}
		delta = next
	}

	res, err := Eval(info, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if res.Relation("nl").Len() != len(full) || st.Derivations != derivations || st.Iterations != iterations {
		t.Fatalf("|nl| %d, %d derivations, %d iterations; want %d, %d, %d",
			res.Relation("nl").Len(), st.Derivations, st.Iterations, len(full), derivations, iterations)
	}
}
