package core

import (
	"fmt"
	"strings"
	"testing"

	"idlog/internal/ast"
	"idlog/internal/parser"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// cardOf builds a cardFn from a pred → estimate table (unknown: 1).
func cardOf(table map[string]float64) cardFn {
	return func(l *ast.Literal) float64 {
		if l.Atom == nil {
			return 0
		}
		if c, ok := table[l.Atom.Pred]; ok {
			return c
		}
		return 1
	}
}

// TestChoosePartition pins the planner's partition-key decision on the
// documented matrix: join-key found, largest-cardinality probe wins,
// and the conservative fallbacks (negation, ID-literals, no shared
// variable) return nil.
func TestChoosePartition(t *testing.T) {
	parse := func(src string) []*ast.Literal {
		t.Helper()
		prog, err := parser.Program(src)
		if err != nil {
			t.Fatal(err)
		}
		return prog.Clauses[0].Body
	}
	card := cardOf(map[string]float64{"e": 100, "f": 500})

	spec := choosePartition(parse(`h(X, Z) :- tc(X, Y), e(Y, Z).`), card)
	if spec == nil || spec.deltaCol != 1 || spec.probeDepth != 1 || spec.probeCol != 0 || spec.pvar != "Y" {
		t.Fatalf("tc ⋈ e: spec = %+v, want delta col 1 ⋈ e col 0 on Y", spec)
	}

	// The largest estimated probe relation wins the key choice.
	spec = choosePartition(parse(`h(X) :- t(X, Y), e(Y, Z), f(Y, W).`), card)
	if spec == nil || spec.probeDepth != 2 || spec.pvar != "Y" {
		t.Fatalf("largest-card probe: spec = %+v, want depth 2 (f)", spec)
	}

	for name, src := range map[string]string{
		"negation":      `h(X) :- t(X, Y), e(Y, Z), not g(Y).`,
		"id-literal":    `h(X) :- t(X, Y), g[1](Y, Z, 1).`,
		"no-shared-var": `h(X, Y) :- t(X), g(Y).`,
		"builtin-only":  `h(X, Y) :- t(X, Y), Y > 3.`,
		"single":        `h(X) :- t(X).`,
	} {
		if got := choosePartition(parse(src), card); got != nil {
			t.Fatalf("%s: spec = %+v, want nil (cross-partition fallback)", name, got)
		}
	}
}

// TestExplainPlanRendersPartitioning checks the "partition:" plan lines:
// present with a fan-out armed (key line for partitionable deltas, the
// fallback note otherwise), absent when partitioning is off.
func TestExplainPlanRendersPartitioning(t *testing.T) {
	info := mustAnalyze(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- tc(X, Y), e(Y, Z).
		node(X) :- e(X, _).
		hasout(X) :- e(X, _).
		iso(X) :- node(X), not hasout(X), node(X).
	`)
	db := NewDatabase()
	_ = db.AddAll("e", value.Ints(1, 2), value.Ints(2, 3), value.Ints(3, 1))

	out, err := ExplainPlan(info, db, Options{Partitions: 4, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "partition: 4 ways on Y (delta col 1 ⋈ e col 0)") {
		t.Fatalf("partition key line missing:\n%s", out)
	}

	off, err := ExplainPlan(info, db, Options{Partitions: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(off, "partition:") {
		t.Fatalf("partition lines rendered with partitioning off:\n%s", off)
	}

	neg := mustAnalyze(t, `
		r(X) :- s(X).
		r(Y) :- r(X), e(X, Y), not bad(Y).
	`)
	ndb := NewDatabase()
	_ = ndb.Add("s", value.Ints(1))
	_ = ndb.AddAll("e", value.Ints(1, 2), value.Ints(2, 3))
	_ = ndb.Add("bad", value.Ints(3))
	nout, err := ExplainPlan(neg, ndb, Options{Partitions: 4, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nout, "partition: none (cross-partition fallback: range-sharded)") {
		t.Fatalf("fallback line missing:\n%s", nout)
	}
}

// addDenseGraph adds to db, as e, a 128-node graph whose nodes each have
// three out-edges. Its closure's widest delta rounds (about 5.4k tuples)
// clear minParallelDelta, so partitioned evaluation actually runs.
func addDenseGraph(t *testing.T, db *Database) {
	t.Helper()
	const n = 128
	name := func(i int) string { return fmt.Sprintf("g%03d", i%n) }
	for i := 0; i < n; i++ {
		if err := db.AddAll("e", value.Strs(name(i), name(i+1)),
			value.Strs(name(i), name(3*i+1)), value.Strs(name(i), name(7*i+2))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPartitionedStats checks the merged Stats surface: a partitioned
// run records the fan-out, the partitioned round count, and a sane skew
// ratio; an unpartitioned run records zeros.
func TestPartitionedStats(t *testing.T) {
	info := mustAnalyze(t, parallelPrograms)
	denseDB := func() *Database {
		db := parallelDB(t)
		addDenseGraph(t, db)
		return db
	}
	res, err := Eval(info, denseDB(), Options{Parallelism: 2, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Partitions != 4 {
		t.Fatalf("Stats.Partitions = %d, want 4", res.Stats.Partitions)
	}
	if res.Stats.PartitionedRounds == 0 {
		t.Fatal("Stats.PartitionedRounds = 0, want > 0 for a recursive run")
	}
	if res.Stats.PartitionSkew < 1 {
		t.Fatalf("Stats.PartitionSkew = %v, want ≥ 1 (max/mean)", res.Stats.PartitionSkew)
	}
	seq, err := Eval(info, denseDB(), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats.Partitions != 0 || seq.Stats.PartitionedRounds != 0 {
		t.Fatalf("sequential run recorded partition stats: %+v", seq.Stats)
	}
	if res.Stats.Inserted != seq.Stats.Inserted {
		t.Fatalf("inserted diverged: partitioned %d, sequential %d", res.Stats.Inserted, seq.Stats.Inserted)
	}
}

// TestPartitionPruningSkipsIndexBuilds is the single-core E19 metric in
// unit form: with the delta reaching only some partitions, the probe
// relation's unreached partitions never build a secondary index, so the
// process-wide indexed-tuple counter grows by less than a full-relation
// build. The seed is wide enough for both delta rounds to clear
// minParallelDelta, yet each round's delta tuples share one join key.
func TestPartitionPruningSkipsIndexBuilds(t *testing.T) {
	info := mustAnalyze(t, `
		tc(X, Y) :- seed(X, Y).
		tc(X, Z) :- tc(X, Y), big(Y, Z).
	`)
	run := func(partitions int) uint64 {
		t.Helper()
		db := NewDatabase()
		for i := 0; i < minParallelDelta; i++ {
			_ = db.Add("seed", value.Strs(fmt.Sprintf("x%d", i), "a0"))
		}
		_ = db.Add("big", value.Strs("a0", "z"))
		for i := 1; i < 400; i++ {
			_ = db.Add("big", value.Strs(fmt.Sprintf("a%d", 1+i%39), fmt.Sprintf("b%d", i)))
		}
		before := relation.IndexedTuplesTotal()
		if _, err := Eval(info, db, Options{Parallelism: 2, Partitions: partitions}); err != nil {
			t.Fatal(err)
		}
		return relation.IndexedTuplesTotal() - before
	}
	whole := run(1)
	pruned := run(8)
	if pruned >= whole {
		t.Fatalf("partition pruning built %d indexed tuples, unpartitioned %d — expected a reduction", pruned, whole)
	}
}
