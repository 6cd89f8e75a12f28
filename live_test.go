package idlog

import (
	"fmt"
	"testing"

	"idlog/internal/relation"
)

// tcForest builds the frozen EDB of the live-view cost tests: 64 chains
// of 16 nodes, each node with three private leaves (4 032 edges).
func tcForest(t *testing.T) (*Program, *Database, func(c, j int) string) {
	t.Helper()
	prog := mustParse(t, `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
	`)
	db := NewDatabase()
	node := func(c, j int) string { return fmt.Sprintf("c%dn%d", c, j) }
	for c := 0; c < 64; c++ {
		for j := 0; j < 16; j++ {
			if j+1 < 16 {
				_ = db.Add("edge", Strs(node(c, j), node(c, j+1)))
			}
			for k := 0; k < 3; k++ {
				_ = db.Add("edge", Strs(node(c, j), fmt.Sprintf("%sl%d", node(c, j), k)))
			}
		}
	}
	return prog, db.Freeze(), node
}

// assertViewIsRecompute compares the view's tc with a from-scratch Eval
// over the view's snapshot.
func assertViewIsRecompute(t *testing.T, prog *Program, lv *LiveView) {
	t.Helper()
	res, err := prog.Eval(lv.Database())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lv.Relation("tc"), res.Relation("tc"); !got.Equal(want) {
		t.Fatalf("view tc has %d tuples, recompute %d", got.Len(), want.Len())
	}
}

// TestLiveViewWriteCostsItsDelta pins the index work of a live write to
// the size of the write, not of the relations it touches. Each snapshot
// Database.Apply returns is a version of the previous one, sharing its
// primary table and secondary indexes, and deletion reads the previous
// snapshot as the pre-update state; so after the first write has built
// the base's indexes once, a one-fact insert or delete indexes only the
// version's private part and the handful of IDB tuples it changes.
// Copying and re-indexing edge instead would cost ≥ edge.Len() = 4 032
// indexed tuples per write (three indexes were rebuilt per write before
// versions).
func TestLiveViewWriteCostsItsDelta(t *testing.T) {
	prog, db, node := tcForest(t)
	edge := db.Relation("edge").Len()
	if edge < 4000 {
		t.Fatalf("forest has %d edges, want ≥ 4000", edge)
	}
	lv, err := prog.NewLiveView(db)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: the first write builds the base's indexes, once for every
	// later version.
	warm := []Fact{{Pred: "edge", Tuple: Strs(node(1, 15), "warm")}}
	if _, _, err := lv.Apply(warm, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lv.Apply(nil, warm); err != nil {
		t.Fatal(err)
	}
	// One insert that grows a chain's closure, one delete that cuts one.
	writes := []struct{ ins, del []Fact }{
		{ins: []Fact{{Pred: "edge", Tuple: Strs(node(3, 15), node(4, 0))}}},
		{del: []Fact{{Pred: "edge", Tuple: Strs(node(5, 7), node(5, 8))}}},
	}
	for i, w := range writes {
		before := relation.IndexedTuplesTotal()
		if _, _, err := lv.Apply(w.ins, w.del); err != nil {
			t.Fatal(err)
		}
		// A twentieth of edge: each write above indexes a handful of
		// tuples (its version's private part), so the bound leaves ample
		// headroom for incidental index builds while still failing, by
		// 20x, any write that re-indexes edge.
		if got, limit := relation.IndexedTuplesTotal()-before, uint64(edge/20); got > limit {
			t.Fatalf("write %d indexed %d tuples, want ≤ %d (edge holds %d)", i, got, limit, edge)
		}
		assertViewIsRecompute(t, prog, lv)
	}
}

// TestLiveViewAdvanceRejectsForeignSnapshot checks the contract
// deletion's old-state read relies on: Advance accepts only a snapshot Database.Apply
// derived from the view's own, refuses any other without going stale,
// and still advances normally afterwards.
func TestLiveViewAdvanceRejectsForeignSnapshot(t *testing.T) {
	prog, db, node := tcForest(t)
	lv, err := prog.NewLiveView(db)
	if err != nil {
		t.Fatal(err)
	}
	ins := []Fact{{Pred: "edge", Tuple: Strs(node(2, 15), node(3, 0))}}
	next, delta, err := db.Apply(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	del := []Fact{{Pred: "edge", Tuple: Strs(node(2, 3), node(2, 4))}}
	skipped, skippedDelta, err := next.Apply(nil, del)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lv.Advance(skipped, skippedDelta); err == nil {
		t.Fatal("Advance accepted a snapshot derived from another snapshot")
	}
	if lv.Stale() || lv.Database() != db {
		t.Fatalf("refused Advance changed the view: stale=%v, snapshot moved=%v", lv.Stale(), lv.Database() != db)
	}
	if _, err := lv.Advance(next, delta); err != nil {
		t.Fatal(err)
	}
	assertViewIsRecompute(t, prog, lv)
	if _, err := lv.Advance(skipped, skippedDelta); err != nil {
		t.Fatal(err)
	}
	assertViewIsRecompute(t, prog, lv)
}
