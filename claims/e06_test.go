package claims

import (
	"testing"

	"idlog/internal/core"
	"idlog/internal/value"
)

const tcProgram = `
	tc(X, Y) :- e(X, Y).
	tc(X, Y) :- e(X, Z), tc(Z, Y).
`

// joins counts the pairs e(x, z), r(z, y): the ground instantiations
// of the recursive body with r for tc.
func joins(db *core.Database, r []value.Tuple) int {
	from := map[string]int{}
	for _, t := range r {
		from[t[0].String()]++
	}
	n := 0
	for _, e := range db.Relation("e").Tuples() {
		n += from[e[1].String()]
	}
	return n
}

// TestE6SeminaiveTransfers checks the §2.2 claim that standard
// evaluation strategies carry over to IDLOG: semi-naive evaluation of
// transitive closure fires each ground body instantiation of the final
// model exactly once, so its derivations track that count instead of
// growing with the number of rounds. The recursive rule has no tc
// tuples to read in the seed round, so the seed round runs only the exit
// rule at every worker count, and every round reads its round-start
// state: both worker counts fire the same instantiations in the same
// rounds.
func TestE6SeminaiveTransfers(t *testing.T) {
	info := analyze(t, tcProgram)
	for _, c := range []struct {
		name string
		db   *core.Database
		tc   int
		// derivations and iterations at parallelism 1 and 2 alike.
		derivations, iterations int
	}{
		{"chain-64", chainDB(64), 64 * 65 / 2, 2080, 65},
		{"chain-128", chainDB(128), 128 * 129 / 2, 8256, 129},
		{"grid-8x8", gridDB(8), 1232, 2016, 15},
	} {
		edges := c.db.Relation("e").Tuples()
		for _, workers := range []int{1, 2} {
			res := eval(t, info, c.db, core.Options{Parallelism: workers})
			size, st := res.Relation("tc").Len(), res.Stats
			// One derivation per body instantiation.
			want := len(edges) + joins(c.db, res.Relation("tc").Tuples())
			t.Logf("%-9s parallelism %d: |tc| %5d (want %5d)  derivations %5d (want %5d; instantiations %5d)  iterations %3d (want %3d)",
				c.name, workers, size, c.tc, st.Derivations, c.derivations, want, st.Iterations, c.iterations)
			if st.Derivations != want {
				t.Fatalf("%s parallelism %d: %d derivations, want %d; semi-naive refired an instantiation", c.name, workers, st.Derivations, want)
			}
			if size != c.tc || st.Derivations != c.derivations || st.Iterations != c.iterations {
				t.Fatalf("%s parallelism %d: |tc| %d, %d derivations, %d iterations; want %d, %d, %d", c.name, workers,
					size, st.Derivations, st.Iterations, c.tc, c.derivations, c.iterations)
			}
		}
	}
}
