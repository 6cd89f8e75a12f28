//go:build go1.24

package idlog

import (
	"runtime"
	"testing"
	"weak"

	"idlog/internal/relation"
)

// TestLiveViewDoesNotPinDroppedSnapshots: a live view's compiled plans
// keep the statistics their planner read, never the relations, so once
// the view has moved to another database, the snapshots it was built and
// advanced on are collectable.
func TestLiveViewDoesNotPinDroppedSnapshots(t *testing.T) {
	prog := mustParse(t, `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y), edge(Y, Z).
	`)
	chain := func(n int64) *Database {
		db := NewDatabase()
		for i := int64(0); i < n; i++ {
			if err := db.Add("edge", Ints(i, i+1)); err != nil {
				t.Fatal(err)
			}
			if err := db.Add("edge", Ints(i+1, i)); err != nil {
				t.Fatal(err)
			}
		}
		return db.Freeze()
	}
	lv, edge := func() (*LiveView, weak.Pointer[relation.Relation]) {
		db := chain(40)
		lv, err := prog.NewLiveView(db)
		if err != nil {
			t.Fatal(err)
		}
		// The update compiles the view's plans over the frozen snapshot.
		if _, _, err := lv.Apply([]Fact{{Pred: "edge", Tuple: Ints(100, 101)}}, nil); err != nil {
			t.Fatal(err)
		}
		return lv, weak.Make(db.Relation("edge"))
	}()
	if err := lv.Rebuild(chain(10)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && edge.Value() != nil; i++ {
		runtime.GC()
	}
	if edge.Value() != nil {
		t.Fatal("the view still reaches a dropped snapshot's frozen relation")
	}
	res, err := prog.Eval(chain(10))
	if err != nil {
		t.Fatal(err)
	}
	if lv.Relation("tc").Fingerprint() != res.Relation("tc").Fingerprint() {
		t.Fatal("the rebuilt view differs from a fresh evaluation")
	}
}
