package claims

import (
	"testing"

	"idlog/internal/core"
	"idlog/internal/value"
)

// countProgram computes |item| and its parity through an ungrouped
// ID-relation: the tids are 0..|item|-1, so the first missing tid is
// the cardinality.
const countProgram = `
	has_tid(T) :- item[](X, T).
	card(C)    :- has_tid(T), succ(T, C), not has_tid(C).
	even       :- card(C), mod(C, 2, 0).
`

// TestE10DeterministicCounting checks the deterministic side of
// tuple-identifiers ([She90b], §1): counting, which pure DATALOG cannot
// express, returns card = |item| and the right parity under every
// oracle seed, so the answer is invariant although the ID-function is
// not.
func TestE10DeterministicCounting(t *testing.T) {
	const seeds = 10
	info := analyze(t, countProgram)
	for _, n := range []int{10, 100} {
		db := core.NewDatabase()
		for i := 0; i < n; i++ {
			_ = db.Add("item", value.Ints(int64(i)))
		}
		var first string
		invariant := 0
		for seed := 0; seed < seeds; seed++ {
			res := eval(t, info, db, seeded(seed))
			card := res.Relation("card")
			if card.Len() != 1 || !card.Contains(value.Ints(int64(n))) {
				t.Fatalf("|item| = %d, seed %d: card = %v", n, seed, card)
			}
			if even := res.Relation("even").Len() == 1; even != (n%2 == 0) {
				t.Fatalf("|item| = %d, seed %d: even = %v", n, seed, even)
			}
			if seed == 0 {
				first = card.Fingerprint()
			}
			if card.Fingerprint() == first {
				invariant++
			}
		}
		t.Logf("|item| = %d: card = %d and parity right under %d/%d seeds, answer identical under %d/%d",
			n, n, seeds, seeds, invariant, seeds)
		if invariant != seeds {
			t.Fatalf("|item| = %d: answer differs across seeds (%d/%d identical)", n, invariant, seeds)
		}
	}
}
