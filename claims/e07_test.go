package claims

import (
	"testing"

	"idlog/internal/core"
	"idlog/internal/relation"
)

// TestE7AnswerSetEnumeration checks §3.1 (Examples 1–2): a query's
// answer set collects q over every ID-function assignment. Each person
// has a two-tuple sex_guess group, so there are 2^n assignments, and
// man's distinct answers are the 2^n subsets of the persons.
func TestE7AnswerSetEnumeration(t *testing.T) {
	info := analyze(t, manWomanIDLOG)
	for _, n := range []int{2, 4, 6} {
		db := personDB(n)
		answers, err := core.Enumerate(info, db, []string{"man"}, core.EnumerateOptions{MaxRuns: 2000000})
		if err != nil {
			t.Fatalf("%d persons: %v", n, err)
		}
		groups := eval(t, info, db, core.Options{}).Relation("sex_guess").Groups([]int{0})
		// An ID-function orders each group: Π |group|! assignments.
		assignments := uint64(1)
		for _, g := range groups {
			assignments *= relation.Factorial(len(g.Members))
		}
		fam := answerFamily(answers, "man")
		t.Logf("%d persons: %d assignments, %d answers, %d distinct (want 2^%d = %d each)",
			n, assignments, len(answers), len(fam), n, 1<<n)
		if assignments != 1<<uint(n) {
			t.Fatalf("%d persons: %d assignments, want %d", n, assignments, 1<<n)
		}
		if len(answers) != 1<<n || len(fam) != 1<<n {
			t.Fatalf("%d persons: %d answers (%d distinct), want %d", n, len(answers), len(fam), 1<<n)
		}
	}
}
