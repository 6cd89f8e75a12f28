package claims

import (
	"testing"

	"idlog/internal/adorn"
	"idlog/internal/choice"
	"idlog/internal/core"
	"idlog/internal/relation"
)

// TestE2AllDepts checks C2 (§1, §4) on all_depts(D) :- emp(N, D): the
// choice operator and the ID-literal rewrite emp[2](N, D, 0) compute
// the same departments as plain DATALOG while deriving one tuple per
// department instead of one per employee; the ID-literal also scans
// one tuple per department.
func TestE2AllDepts(t *testing.T) {
	plain := parse(t, `all_depts(D) :- emp(N, D).`)
	plainInfo := analyzeProgram(t, plain)
	withChoice := parse(t, `all_depts(D) :- emp(N, D), choice((D), (N)).`)
	optimized, err := adorn.Optimize(plain, "all_depts")
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	optInfo := analyzeProgram(t, optimized)

	for _, c := range [][2]int{{10, 100}, {20, 500}} {
		depts, per := c[0], c[1]
		db := empDB(depts, per)
		base := eval(t, plainInfo, db, core.Options{})
		chRes, err := choice.Eval(withChoice, db, choice.Options{Oracle: relation.SortedOracle{}})
		if err != nil {
			t.Fatalf("choice: %v", err)
		}
		if !chRes.Relation("all_depts").Equal(base.Relation("all_depts")) {
			t.Fatalf("%dx%d: choice variant computed a different answer", depts, per)
		}
		optRes := eval(t, optInfo, db, core.Options{})
		if !optRes.Relation("all_depts").Equal(base.Relation("all_depts")) {
			t.Fatalf("%dx%d: ID-literal variant computed a different answer", depts, per)
		}
		for _, v := range []struct {
			name                         string
			stats                        core.Stats
			wantDerivations, wantScanned int
		}{
			{"plain DATALOG", base.Stats, depts * per, depts * per},
			{"DATALOG^C choice", chRes.Stats, depts, 2 * depts},
			{"IDLOG emp[2](N,D,0)", optRes.Stats, depts, depts},
		} {
			t.Logf("%dx%d %-20s derivations %6d (want %6d)  scanned %6d (want %6d)", depts, per, v.name,
				v.stats.Derivations, v.wantDerivations, v.stats.TuplesScanned, v.wantScanned)
			if v.stats.Derivations != v.wantDerivations || v.stats.TuplesScanned != v.wantScanned {
				t.Fatalf("%dx%d %s: %d derivations, %d scanned; want %d, %d", depts, per, v.name,
					v.stats.Derivations, v.stats.TuplesScanned, v.wantDerivations, v.wantScanned)
			}
		}
	}
}
