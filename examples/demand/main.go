// Command demand shows goal-directed evaluation via the magic-sets
// rewrite: a reachability point query against a large graph, answered
// through the demand path and checked against the whole model computed
// by Program.Eval, with the engine's work counters making the
// difference visible. The rewrite restricts evaluation to the query's
// derivation cone — the nodes actually reachable from the queried
// source — so the derivation count tracks the cone size instead of the
// full transitive closure.
package main

import (
	"fmt"
	"log"

	"idlog"
)

func main() {
	src := `
		reach(X, Y) :- edge(X, Y).
		reach(X, Y) :- edge(X, Z), reach(Z, Y).
	`
	prog, err := idlog.Parse(src)
	if err != nil {
		log.Fatal(err)
	}

	// A long chain with side branches: the full closure is quadratic in
	// the chain length, but a query near the end only reaches a short
	// suffix of it.
	const chain, branch = 600, 3
	db := idlog.NewDatabase()
	leaf := int64(100000)
	for i := int64(0); i < chain; i++ {
		if err := db.Add("edge", idlog.Ints(i, i+1)); err != nil {
			log.Fatal(err)
		}
		for b := 0; b < branch; b++ {
			if err := db.Add("edge", idlog.Ints(i, leaf)); err != nil {
				log.Fatal(err)
			}
			leaf++
		}
	}
	fmt.Printf("workload: chain of %d with %d side branches per node (%d edges)\n\n",
		chain, branch, chain*(branch+1))

	goal := fmt.Sprintf("reach(%d, Y)", chain-40)
	pq, err := prog.Prepare(goal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("goal: ?- %s   (magic rewrite applicable: %v)\n\n", goal, pq.UsesMagic())

	full, err := prog.Eval(db)
	if err != nil {
		log.Fatal(err)
	}
	magic, err := pq.Query(db)
	if err != nil {
		log.Fatal(err)
	}
	source, want := idlog.Int(chain-40), 0
	for _, t := range full.Relation("reach").Sorted() {
		if t[0].Equal(source) {
			want++
		}
	}
	if len(magic.Rows) != want {
		log.Fatalf("answer sets diverge: %d rows in the whole model, %d on the demand path", want, len(magic.Rows))
	}

	fmt.Printf("answers: %d reachable nodes, as in the whole model\n\n", len(magic.Rows))
	fmt.Println("work counters            whole model  demand path")
	fmt.Printf("  derivations           %11d  %11d\n", full.Stats.Derivations, magic.Stats.Derivations)
	fmt.Printf("  tuples inserted       %11d  %11d\n", full.Stats.Inserted, magic.Stats.Inserted)
	fmt.Printf("  tuples scanned        %11d  %11d\n", full.Stats.TuplesScanned, magic.Stats.TuplesScanned)
	fmt.Printf("\nderivation ratio: %.1fx fewer with the demand rewrite\n",
		float64(full.Stats.Derivations)/float64(magic.Stats.Derivations))

	// The plan output shows what actually executes: the adorned rules,
	// their magic guards, and the seed carrying the goal's constant.
	plan, err := pq.ExplainPlan(db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplan:\n%s", plan)
}
