package claims

import (
	"testing"

	"idlog/internal/adorn"
	"idlog/internal/analysis"
	"idlog/internal/core"
)

// example6 is the Example 6 reachability-source program.
const example6 = `
	q(X) :- a(X, Y).
	a(X, Y) :- p(X, Z), a(Z, Y).
	a(X, Y) :- p(X, Y).
`

// TestE3ExistentialRewrite checks C4 (§4, Examples 6–8, Theorem 4) on
// chain-with-fan-out graphs: pushing projections and then the
// ID-literal rewrite preserve q, the rewrites collapse the quadratic
// a(X, Y) to one tuple per chain node, and each stage derives less
// than the one before.
func TestE3ExistentialRewrite(t *testing.T) {
	orig := parse(t, example6)
	res, err := adorn.Analyze(orig, "q")
	if err != nil {
		t.Fatalf("adorn: %v", err)
	}
	full, err := adorn.Optimize(orig, "q")
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	variants := []struct {
		name string
		info *analysis.Info
	}{
		{"original", analyzeProgram(t, orig)},
		{"projections pushed", analyzeProgram(t, adorn.PushProjections(orig, res))},
		{"pushed + ID-literal", analyzeProgram(t, full)},
	}
	for _, c := range []struct {
		chain, fan int
		// derivations and inserted per variant, in variants' order.
		derivations, inserted [3]int
	}{
		{40, 10, [3]int{18040, 519, 119}, [3]int{9060, 80, 80}},
		{60, 25, [3]int{95160, 1679, 179}, [3]int{47640, 120, 120}},
	} {
		db := chainFanDB(c.chain, c.fan)
		var q *core.Result
		var got [3]core.Stats
		for i, v := range variants {
			r := eval(t, v.info, db, core.Options{})
			if q == nil {
				q = r
			} else if !r.Relation("q").Equal(q.Relation("q")) {
				t.Fatalf("chain %d fan %d: %s differs from the original on q", c.chain, c.fan, v.name)
			}
			got[i] = r.Stats
			t.Logf("chain %d fan %d %-20s derivations %6d (want %6d)  inserted %6d (want %6d)", c.chain, c.fan, v.name,
				r.Stats.Derivations, c.derivations[i], r.Stats.Inserted, c.inserted[i])
		}
		if !(got[2].Derivations < got[1].Derivations && got[1].Derivations < got[0].Derivations) {
			t.Fatalf("chain %d fan %d: derivations %d, %d, %d do not fall stage by stage",
				c.chain, c.fan, got[0].Derivations, got[1].Derivations, got[2].Derivations)
		}
		if got[1].Inserted != 2*c.chain || got[2].Inserted != 2*c.chain {
			t.Fatalf("chain %d fan %d: rewritten programs inserted %d and %d tuples, want 2·chain = %d",
				c.chain, c.fan, got[1].Inserted, got[2].Inserted, 2*c.chain)
		}
		for i := range variants {
			if got[i].Derivations != c.derivations[i] || got[i].Inserted != c.inserted[i] {
				t.Fatalf("chain %d fan %d %s: %d derivations, %d inserted; want %d, %d", c.chain, c.fan,
					variants[i].name, got[i].Derivations, got[i].Inserted, c.derivations[i], c.inserted[i])
			}
		}
	}
}
