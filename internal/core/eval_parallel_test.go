package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"idlog/internal/analysis"
	"idlog/internal/guard"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// parallelDB builds a database big enough that every clause shape
// shards: a two-component graph, node table, and employee table.
func parallelDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	for i := 0; i < 120; i++ {
		_ = db.Add("e", value.Strs(fmt.Sprintf("n%03d", i), fmt.Sprintf("n%03d", i+1)))
		if i%4 == 0 {
			_ = db.Add("e", value.Strs(fmt.Sprintf("n%03d", i), fmt.Sprintf("m%03d", i)))
		}
	}
	for i := 0; i <= 121; i++ {
		_ = db.Add("node", value.Strs(fmt.Sprintf("n%03d", i)))
	}
	_ = db.Add("start", value.Strs("n000"))
	for d := 0; d < 6; d++ {
		for e := 0; e < 8; e++ {
			_ = db.Add("emp", value.Strs(fmt.Sprintf("e%d_%d", d, e), fmt.Sprintf("dept%d", d)))
		}
	}
	return db
}

const parallelPrograms = `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
reach(X) :- start(X).
reach(Y) :- reach(X), e(X, Y).
unreached(X) :- node(X), not reach(X).
pick(N, D) :- emp[2](N, D, 0).
`

// modelFingerprint renders every program relation canonically.
func modelFingerprint(res *Result, info *analysis.Info) string {
	preds := make([]string, 0, len(info.IDB))
	for p := range info.IDB {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	var b strings.Builder
	for _, p := range preds {
		b.WriteString(p)
		b.WriteString("=")
		b.WriteString(res.Relation(p).Fingerprint())
		b.WriteString("\n")
	}
	return b.String()
}

// TestParallelMatchesSequential checks byte-identical models across
// worker counts, including the within-parallel insertion-order
// invariant (Tuples order equal for any workers ≥ 2 at a fixed
// partition fan-out — partitioning permutes the delta enumeration
// sequence per fan-out, so the order invariant is per partition count
// while the model is identical at every setting).
func TestParallelMatchesSequential(t *testing.T) {
	info := mustAnalyze(t, parallelPrograms)
	seqRes, err := Eval(info, parallelDB(t), Options{
		Oracle: relation.RandomOracle{Seed: 42}, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := modelFingerprint(seqRes, info)
	for _, partitions := range []int{1, 2, 3, 8} {
		var order2 []string
		for _, workers := range []int{2, 3, 4, 8} {
			res, err := Eval(info, parallelDB(t), Options{
				Oracle: relation.RandomOracle{Seed: 42}, Parallelism: workers, Partitions: partitions})
			if err != nil {
				t.Fatalf("workers=%d partitions=%d: %v", workers, partitions, err)
			}
			if got := modelFingerprint(res, info); got != want {
				t.Fatalf("workers=%d partitions=%d: model diverged from sequential", workers, partitions)
			}
			var order []string
			for _, tup := range res.Relation("tc").Tuples() {
				order = append(order, tup.String())
			}
			if order2 == nil {
				order2 = order
			} else {
				if len(order) != len(order2) {
					t.Fatalf("workers=%d partitions=%d: insertion-order length diverged", workers, partitions)
				}
				for i := range order {
					if order[i] != order2[i] {
						t.Fatalf("workers=%d partitions=%d: insertion order diverged at %d", workers, partitions, i)
					}
				}
			}
		}
	}
}

// TestParallelStatsConsistent checks the merged counters still satisfy
// the core invariants (inserted ≤ derivations; derivations ≥ model).
func TestParallelStatsConsistent(t *testing.T) {
	info := mustAnalyze(t, parallelPrograms)
	res, err := Eval(info, parallelDB(t), Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Inserted > res.Stats.Derivations {
		t.Fatalf("inserted %d > derivations %d", res.Stats.Inserted, res.Stats.Derivations)
	}
	if res.Stats.Inserted != seqInserted(t, info) {
		t.Fatalf("parallel inserted %d != sequential %d", res.Stats.Inserted, seqInserted(t, info))
	}
}

func seqInserted(t *testing.T, info *analysis.Info) int {
	t.Helper()
	res, err := Eval(info, parallelDB(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats.Inserted
}

// TestParallelBudgets checks governance through the parallel path: the
// tuple budget trips exactly, the derivation budget is a hard ceiling,
// and cancellation surfaces as the typed error with a partial model.
func TestParallelBudgets(t *testing.T) {
	info := mustAnalyze(t, parallelPrograms)

	g := guard.New(nil, guard.Limits{MaxTuples: 50})
	res, err := Eval(info, parallelDB(t), Options{Parallelism: 4, Guard: g})
	if err == nil {
		t.Fatalf("tuple budget did not trip")
	}
	if !res.Incomplete {
		t.Fatalf("tripped run not marked incomplete")
	}
	if _, tuples := g.Usage(); tuples != 50 {
		t.Fatalf("tuple budget inexact under parallelism: %d held, want 50", tuples)
	}

	g = guard.New(nil, guard.Limits{MaxDerivations: 300})
	_, err = Eval(info, parallelDB(t), Options{Parallelism: 4, Guard: g})
	if err == nil {
		t.Fatalf("derivation budget did not trip")
	}
	if d, _ := g.Usage(); d > 300 {
		t.Fatalf("derivation ledger overshot: %d > 300", d)
	}
}

// TestParallelPanicRecovered checks a worker panic (injected fault)
// converts to a typed Internal/ResourceExhausted error, not a crash.
func TestParallelPanicRecovered(t *testing.T) {
	info := mustAnalyze(t, parallelPrograms)
	g := guard.New(nil, guard.Limits{})
	g.Inject(guard.FailAfter(100))
	res, err := Eval(info, parallelDB(t), Options{Parallelism: 4, Guard: g})
	if err == nil {
		t.Fatalf("injected fault vanished")
	}
	if res == nil || !res.Incomplete {
		t.Fatalf("fault did not produce a partial result")
	}
}

// TestParallelNonRecursiveStratum covers the single-round scheduling
// path (Component.Recursive false) under parallelism.
func TestParallelNonRecursiveStratum(t *testing.T) {
	info := mustAnalyze(t, `
		big(X, Y) :- e(X, Y).
		pair(X, Y) :- big(X, Y), node(X).
	`)
	seq, err := Eval(info, parallelDB(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Eval(info, parallelDB(t), Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Relation("pair").Fingerprint() != par.Relation("pair").Fingerprint() {
		t.Fatalf("non-recursive stratum diverged under parallelism")
	}
	if seq.Stats.Inserted != par.Stats.Inserted {
		t.Fatalf("inserted: seq %d, par %d", seq.Stats.Inserted, par.Stats.Inserted)
	}
}
