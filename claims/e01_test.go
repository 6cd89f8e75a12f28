package claims

import (
	"testing"

	"idlog/internal/choice"
	"idlog/internal/core"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// samplingIDLOG is the paper's one-clause two-sample query (Example 5).
const samplingIDLOG = `select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.`

// samplingChoicePair is Example 5's encoding with two independent
// choices (plus the symmetric projection clause the paper elides,
// without which two per department is impossible).
const samplingChoicePair = `
	emp1(N, D) :- emp(N, D), choice((D), (N)).
	emp2(N, D) :- emp(N, D), choice((D), (N)).
	select_two_emp(N1) :- emp1(N1, D), emp2(N2, D), N1 != N2.
	select_two_emp(N2) :- emp1(N1, D), emp2(N2, D), N1 != N2.
`

// twoPerDept reports whether res selects exactly two employees from
// every department of emp.
func twoPerDept(res *core.Result, emp *core.Database) bool {
	sel := res.Relation("select_two_emp")
	perDept := map[string]int{}
	for _, t := range emp.Relation("emp").Tuples() {
		if sel.Contains(value.Tuple{t[0]}) {
			perDept[t[1].String()]++
		}
	}
	if len(perDept) != len(emp.Relation("emp").Groups([]int{1})) {
		return false
	}
	for _, n := range perDept {
		if n != 2 {
			return false
		}
	}
	return true
}

// TestE1SamplingQueries checks C1 (§1, §3.3, Examples 4–5): the IDLOG
// query returns two employees of every department in every seeded run,
// at two derivations per department, while the pair of independent
// choices misses a department whenever its two choices coincide and
// derives more.
func TestE1SamplingQueries(t *testing.T) {
	const seeds = 20
	idlogInfo := analyze(t, samplingIDLOG)
	pair := parse(t, samplingChoicePair)
	for _, c := range []struct {
		depts, perDept int
		// pairComplete and pairDerivations are the choice pair's
		// complete runs and total derivations over the seeds.
		pairComplete, pairDerivations int
	}{
		{4, 8, 15, 306},
		{8, 16, 14, 628},
	} {
		db := empDB(c.depts, c.perDept)
		complete, derivations := 0, 0
		for seed := 0; seed < seeds; seed++ {
			res := eval(t, idlogInfo, db, seeded(seed))
			if !twoPerDept(res, db) {
				t.Fatalf("%dx%d seed %d: IDLOG sample is not two per department: %v",
					c.depts, c.perDept, seed, res.Relation("select_two_emp"))
			}
			if want := 2 * c.depts; res.Stats.Derivations != want {
				t.Fatalf("%dx%d seed %d: IDLOG derivations = %d, want 2·depts = %d",
					c.depts, c.perDept, seed, res.Stats.Derivations, want)
			}
			pres, err := choice.Eval(pair, db, choice.Options{Oracle: relation.RandomOracle{Seed: uint64(seed)}})
			if err != nil {
				t.Fatalf("choice pair: %v", err)
			}
			if twoPerDept(pres, db) {
				complete++
			}
			derivations += pres.Stats.Derivations
		}
		t.Logf("%dx%d: IDLOG %d/%d complete at %d derivations/run; choice pair %d/%d complete (want %d), %d derivations (want %d)",
			c.depts, c.perDept, seeds, seeds, 2*c.depts, complete, seeds, c.pairComplete, derivations, c.pairDerivations)
		if complete >= seeds {
			t.Fatalf("%dx%d: the choice pair was complete in every run; Example 5's defect did not show", c.depts, c.perDept)
		}
		if derivations <= seeds*2*c.depts {
			t.Fatalf("%dx%d: choice pair derived %d, not more than IDLOG's %d", c.depts, c.perDept, derivations, seeds*2*c.depts)
		}
		if complete != c.pairComplete || derivations != c.pairDerivations {
			t.Fatalf("%dx%d: choice pair %d complete, %d derivations; want %d, %d",
				c.depts, c.perDept, complete, derivations, c.pairComplete, c.pairDerivations)
		}
	}
}
