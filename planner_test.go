package idlog

import "testing"

// TestPlannerPreservesPaperExamples is the end-to-end planner check:
// on the paper's Examples 1–8 (7–8 derived from 6 via
// Program.Optimize, as in the paper), planned runs must produce the
// reference evaluator's answer sets and fingerprints under the sorted
// and a seeded oracle.
func TestPlannerPreservesPaperExamples(t *testing.T) {
	db := paperCorpusDB()
	var workloads []corpusWorkload
	for _, ex := range paperExamples {
		prog := mustParse(t, ex.src)
		workloads = append(workloads, corpusWorkload{ex.name, prog, nil})
		workloads = append(workloads, corpusWorkload{ex.name + "-seeded", prog, []Option{WithSeed(42)}})
	}
	ex6 := mustParse(t, paperExamples[5].src)
	ex8, err := ex6.Optimize("q")
	if err != nil {
		t.Fatal(err)
	}
	workloads = append(workloads,
		corpusWorkload{"ex7-8-optimized", ex8, nil},
		corpusWorkload{"ex7-8-optimized-seeded", ex8, []Option{WithSeed(42)}})

	for _, w := range workloads {
		want := referenceModel(t, w.prog, db, oracleOf(w.opts))
		if got := engineModel(t, w.prog, db, w.opts...); got != want {
			t.Errorf("%s: model differs from the reference\nwant:\n%s\ngot:\n%s",
				w.name, want, got)
		}
	}
}
