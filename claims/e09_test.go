package claims

import (
	"testing"

	"idlog/claims/internal/disjunctive"
	"idlog/claims/internal/inflate"
	"idlog/claims/internal/stable"
	"idlog/internal/core"
)

// TestE9SemanticsLandscape checks §3.2: the Example-2 query expressed
// with a disjunctive head (minimal models), as a non-stratified program
// (stable models, DL outcomes), and in IDLOG defines one answer family
// under all four semantics: the 2^n subsets of the persons. Each
// minimal and each stable model fixes woman as the complement of man,
// so there are exactly 2^n of each.
func TestE9SemanticsLandscape(t *testing.T) {
	disj, err := disjunctive.Parse(`man(X), woman(X) :- person(X).`)
	if err != nil {
		t.Fatalf("parse DATALOG∨: %v", err)
	}
	stab, err := stable.Parse(manWomanNegation)
	if err != nil {
		t.Fatalf("parse stable: %v", err)
	}
	dl, err := inflate.Parse(inflate.DL, manWomanNegation)
	if err != nil {
		t.Fatalf("parse DL: %v", err)
	}
	info := analyze(t, manWomanIDLOG)

	for _, n := range []int{2, 3} {
		db := personDB(n)

		minimal, err := disj.MinimalModels(db, disjunctive.Options{MaxAtoms: 24})
		if err != nil {
			t.Fatalf("%d persons: DATALOG∨: %v", n, err)
		}
		if len(minimal) != 1<<n {
			t.Fatalf("%d persons: %d minimal models, want %d", n, len(minimal), 1<<n)
		}
		minimalFam := family{}
		for _, m := range minimal {
			minimalFam[m.Relation("man", 1).Fingerprint()] = true
		}

		models, err := stab.StableModels(db, stable.Options{MaxAtoms: 24})
		if err != nil {
			t.Fatalf("%d persons: stable: %v", n, err)
		}
		if len(models) != 1<<n {
			t.Fatalf("%d persons: %d stable models, want %d", n, len(models), 1<<n)
		}
		stableFam := family{}
		for _, m := range models {
			stableFam[m.Relation("man", 1).Fingerprint()] = true
		}

		outcomes, err := dl.EnumerateOutcomes(db, []string{"man"}, inflate.EnumerateOptions{MaxStates: 2000000})
		if err != nil {
			t.Fatalf("%d persons: DL: %v", n, err)
		}

		answers, err := core.Enumerate(info, db, []string{"man"}, core.EnumerateOptions{MaxRuns: 2000000})
		if err != nil {
			t.Fatalf("%d persons: IDLOG: %v", n, err)
		}
		ref := answerFamily(answers, "man")
		if len(ref) != 1<<n {
			t.Fatalf("%d persons: IDLOG has %d answers, want %d", n, len(ref), 1<<n)
		}
		for _, c := range []struct {
			name string
			f    family
		}{
			{"DATALOG∨ minimal", minimalFam},
			{"stable models", stableFam},
			{"DL inflationary", answerFamily(outcomes, "man")},
		} {
			t.Logf("%d persons: %-16s %d answers (IDLOG %d, want 2^%d = %d)", n, c.name, len(c.f), len(ref), n, 1<<n)
			if !c.f.equal(ref) {
				t.Fatalf("%d persons: %s family (%d answers) differs from IDLOG's (%d)", n, c.name, len(c.f), len(ref))
			}
		}
	}
}
