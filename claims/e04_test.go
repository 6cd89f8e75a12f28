package claims

import (
	"reflect"
	"testing"

	"idlog/internal/choice"
	"idlog/internal/core"
	"idlog/internal/relation"
)

// TestE4ChoiceTranslation checks C3 (§3.2.2, Theorem 2): the DATALOG^C
// select_emp query and its stratified IDLOG translation (at most four
// strata) have equal answer sets by exhaustive enumeration, and under
// one seed they pick the same employees. The translation pays for the choice domain it
// materializes: one derivation per employee plus two per department,
// where the direct semantics derives one per department.
func TestE4ChoiceTranslation(t *testing.T) {
	prog := parse(t, `select_emp(Name) :- emp(Name, Dept), choice((Dept), (Name)).`)
	translated, err := choice.Translate(prog)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	info := analyzeProgram(t, translated)
	t.Logf("translation: %d clauses (want 3), %d strata (want at most 4)", len(translated.Clauses), len(info.Strata))
	if len(translated.Clauses) != 3 || len(info.Strata) > 4 {
		t.Fatalf("translation has %d clauses in %d strata, want 3 in at most 4", len(translated.Clauses), len(info.Strata))
	}

	tiny := empDB(2, 3)
	direct, err := choice.Enumerate(prog, tiny, []string{"select_emp"}, choice.EnumerateOptions{})
	if err != nil {
		t.Fatalf("enumerate DATALOG^C: %v", err)
	}
	viaIDLOG, err := core.Enumerate(info, tiny, []string{"select_emp"}, core.EnumerateOptions{})
	if err != nil {
		t.Fatalf("enumerate IDLOG: %v", err)
	}
	t.Logf("2x3: direct %d answers, translated %d answers (want 3·3 = 9 each)", len(direct), len(viaIDLOG))
	if len(direct) != 9 {
		t.Fatalf("direct semantics has %d answers, want 9", len(direct))
	}
	if !reflect.DeepEqual(core.AnswerSetFingerprints(direct), core.AnswerSetFingerprints(viaIDLOG)) {
		t.Fatalf("Theorem-2 translation is not answer-set equivalent: %d vs %d answers", len(direct), len(viaIDLOG))
	}

	for _, c := range [][2]int{{10, 50}, {20, 200}} {
		depts, per := c[0], c[1]
		db := empDB(depts, per)
		dRes, err := choice.Eval(prog, db, choice.Options{Oracle: relation.RandomOracle{Seed: 1}})
		if err != nil {
			t.Fatalf("choice: %v", err)
		}
		tRes := eval(t, info, db, seeded(1))
		if !tRes.Relation("select_emp").Equal(dRes.Relation("select_emp")) {
			t.Fatalf("%dx%d: same-seed runs disagree", depts, per)
		}
		wantTrans := depts*per + 2*depts
		t.Logf("%dx%d: direct derivations %d (want %d), translation %d (want %d)",
			depts, per, dRes.Stats.Derivations, depts, tRes.Stats.Derivations, wantTrans)
		if dRes.Stats.Derivations != depts || tRes.Stats.Derivations != wantTrans {
			t.Fatalf("%dx%d: derivations direct %d, translation %d; want %d, %d",
				depts, per, dRes.Stats.Derivations, tRes.Stats.Derivations, depts, wantTrans)
		}
	}
}
