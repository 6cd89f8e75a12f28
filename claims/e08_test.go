package claims

import (
	"testing"

	"idlog/claims/internal/inflate"
	"idlog/internal/core"
)

// TestE8InflationaryFamily checks C6 (§3.2.1, Example 3): the DL
// man/woman program under the non-deterministic inflationary semantics
// has the same answer family as IDLOG's Example 2 — the 2^n subsets of
// the persons — and a single seeded run of each is one of its members.
func TestE8InflationaryFamily(t *testing.T) {
	dl, err := inflate.Parse(inflate.DL, manWomanNegation)
	if err != nil {
		t.Fatalf("parse DL: %v", err)
	}
	info := analyze(t, manWomanIDLOG)
	for _, n := range []int{2, 3} {
		db := personDB(n)
		outcomes, err := dl.EnumerateOutcomes(db, []string{"man"}, inflate.EnumerateOptions{MaxStates: 2000000})
		if err != nil {
			t.Fatalf("%d persons: DL enumerate: %v", n, err)
		}
		answers, err := core.Enumerate(info, db, []string{"man"}, core.EnumerateOptions{MaxRuns: 2000000})
		if err != nil {
			t.Fatalf("%d persons: IDLOG enumerate: %v", n, err)
		}
		dlFam, idFam := answerFamily(outcomes, "man"), answerFamily(answers, "man")
		t.Logf("%d persons: DL %d outcomes, IDLOG %d answers (want 2^%d = %d)", n, len(dlFam), len(idFam), n, 1<<n)
		if !dlFam.equal(idFam) {
			t.Fatalf("%d persons: DL and IDLOG answer families differ", n)
		}
		if len(idFam) != 1<<n {
			t.Fatalf("%d persons: %d answers, want %d", n, len(idFam), 1<<n)
		}
		run, err := dl.Eval(db, inflate.Options{Seed: 7})
		if err != nil {
			t.Fatalf("%d persons: DL run: %v", n, err)
		}
		if !idFam[run.Relation("man").Fingerprint()] {
			t.Fatalf("%d persons: DL run's man %v is not in the family", n, run.Relation("man"))
		}
		if man := eval(t, info, db, seeded(7)).Relation("man"); !idFam[man.Fingerprint()] {
			t.Fatalf("%d persons: IDLOG run's man %v is not in the family", n, man)
		}
	}
}
