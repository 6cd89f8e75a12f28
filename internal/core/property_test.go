package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"idlog/internal/relation"
	"idlog/internal/value"
)

// bfsClosure computes the transitive closure of edges independently of
// the engine, as a reference.
func bfsClosure(edges [][2]int64) map[[2]int64]bool {
	adj := map[int64][]int64{}
	nodes := map[int64]bool{}
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		nodes[e[0]], nodes[e[1]] = true, true
	}
	out := map[[2]int64]bool{}
	for n := range nodes {
		seen := map[int64]bool{}
		frontier := []int64{n}
		for len(frontier) > 0 {
			var next []int64
			for _, u := range frontier {
				for _, v := range adj[u] {
					if !seen[v] {
						seen[v] = true
						out[[2]int64{n, v}] = true
						next = append(next, v)
					}
				}
			}
			frontier = next
		}
	}
	return out
}

// TestTransitiveClosureAgainstBFSProperty cross-checks the engine on
// random graphs against an independent BFS implementation, under both
// evaluation strategies.
func TestTransitiveClosureAgainstBFSProperty(t *testing.T) {
	info := mustAnalyze(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(7)
		var edges [][2]int64
		db := NewDatabase()
		for i := 0; i < n*n/2; i++ {
			e := [2]int64{int64(rng.Intn(n)), int64(rng.Intn(n))}
			edges = append(edges, e)
			_ = db.Add("e", value.Ints(e[0], e[1]))
		}
		want := bfsClosure(edges)
		res, err := Eval(info, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tc := res.Relation("tc")
		if tc.Len() != len(want) {
			t.Fatalf("trial %d: |tc| = %d, BFS says %d\nedges: %v",
				trial, tc.Len(), len(want), edges)
		}
		for pair := range want {
			if !tc.Contains(value.Ints(pair[0], pair[1])) {
				t.Fatalf("trial %d: missing %v", trial, pair)
			}
		}
	}
}

// TestEnumerationCoversAllIDFunctionsProperty: on random relations, the
// number of evaluation runs that Enumerate performs for the single-
// ID-literal program equals the number of ID-functions, and every
// enumerated answer is a valid "one per group" selection.
func TestEnumerationCoversAllIDFunctionsProperty(t *testing.T) {
	info := mustAnalyze(t, `pick(X, G) :- r[2](X, G, 0).`)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		db := NewDatabase()
		rel := relation.New("r", 2)
		groups := 1 + rng.Intn(3)
		for g := 0; g < groups; g++ {
			size := 1 + rng.Intn(3)
			for m := 0; m < size; m++ {
				tup := value.Tuple{value.Str(fmt.Sprintf("m%d_%d", g, m)), value.Str(fmt.Sprintf("g%d", g))}
				rel.MustInsert(tup)
			}
		}
		db.SetRelation("r", rel)
		answers, err := Enumerate(info, db, []string{"pick"}, EnumerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Distinct answers = product over groups of group size (choice
		// of the tid-0 member per group).
		wantAnswers := 1
		for _, g := range rel.Groups([]int{1}) {
			wantAnswers *= len(g.Members)
		}
		if len(answers) != wantAnswers {
			t.Fatalf("trial %d: %d answers, want %d (relation %v)", trial, len(answers), wantAnswers, rel)
		}
		for _, a := range answers {
			pick := a.Relations["pick"]
			if pick.Len() != groups {
				t.Fatalf("trial %d: answer %v does not pick one per group", trial, pick)
			}
			for _, tup := range pick.Tuples() {
				if !rel.Contains(tup) {
					t.Fatalf("trial %d: picked foreign tuple %v", trial, tup)
				}
			}
		}
	}
}

// TestOracleChoiceNeverChangesDeterministicPredicates: predicates that
// do not depend (transitively) on ID-literals must be identical across
// oracles.
func TestOracleChoiceNeverChangesDeterministicPredicates(t *testing.T) {
	info := mustAnalyze(t, `
		det(X) :- e(X, Y).
		nondet(X) :- e[1](X, Y, 0).
	`)
	rng := rand.New(rand.NewSource(5))
	db := NewDatabase()
	for i := 0; i < 20; i++ {
		_ = db.Add("e", value.Ints(int64(rng.Intn(6)), int64(rng.Intn(6))))
	}
	var detFP string
	for seed := uint64(0); seed < 10; seed++ {
		res, err := Eval(info, db, Options{Oracle: relation.RandomOracle{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		fp := res.Relation("det").Fingerprint()
		if detFP == "" {
			detFP = fp
		} else if fp != detFP {
			t.Fatalf("deterministic predicate varied with the oracle")
		}
	}
}

// TestParallelEvalWithDeepClones runs the same program concurrently on
// deep-cloned databases and checks all goroutines agree; run with
// -race in CI to certify isolation.
func TestParallelEvalWithDeepClones(t *testing.T) {
	info := mustAnalyze(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
		pick(X) :- tc[1](X, Y, 0).
	`)
	base := NewDatabase()
	for i := int64(0); i < 30; i++ {
		_ = base.Add("e", value.Ints(i, i+1))
	}
	const workers = 8
	results := make([]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			db := base.DeepClone()
			res, err := Eval(info, db, Options{})
			if err != nil {
				errs[w] = err
				return
			}
			results[w] = res.Relation("tc").Fingerprint() + res.Relation("pick").Fingerprint()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if results[w] != results[0] {
			t.Fatalf("worker %d disagrees", w)
		}
	}
}
