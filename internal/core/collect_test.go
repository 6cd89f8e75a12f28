//go:build go1.24

package core

import (
	"reflect"
	"runtime"
	"testing"
	"weak"

	"idlog/internal/relation"
	"idlog/internal/value"
)

// TestPlanCacheDoesNotPinFrozenRelations: a cached plan keeps the
// statistics its planner read, never the relations they came from, so
// once the database is dropped its frozen relations are collectable
// while the cache still holds the plan priced from their counts.
func TestPlanCacheDoesNotPinFrozenRelations(t *testing.T) {
	info := mustAnalyze(t, colouringSrc)
	pc := NewPlanCache(0)
	edge := func() weak.Pointer[relation.Relation] {
		db := colouringDB(true)
		if _, err := Eval(info, db, Options{Oracle: relation.RandomOracle{Seed: 7}, PlanCache: pc}); err != nil {
			t.Fatal(err)
		}
		return weak.Make(db.Relation("edge"))
	}()
	counted := false
	for _, el := range pc.items {
		for _, comps := range el.Value.(*planEntry).plans {
			for _, sp := range comps {
				for _, cc := range sp.all {
					for _, l := range cc.src.Clause.Body {
						if l.Atom.Pred == "edge" && sp.card(l).distinct != nil {
							counted = true
						}
					}
				}
			}
		}
	}
	if !counted {
		t.Fatal("no cached plan was priced from edge's distinct counts")
	}
	collect(t, edge)
	runtime.KeepAlive(pc)
}

// collect runs the collector until p is cleared, failing if it never is.
func collect(t *testing.T, p weak.Pointer[relation.Relation]) {
	t.Helper()
	for i := 0; i < 10 && p.Value() != nil; i++ {
		runtime.GC()
	}
	if p.Value() != nil {
		t.Fatal("a dropped database's frozen relation is still reachable")
	}
}

// TestWalkResetsCursors: a compiled clause outlives its walks (a live
// view keeps its plans across updates), so when a walk ends each cursor
// — scan, probe and builtin alike — is empty but for its scan buffer's
// capacity, and that buffer holds no tuple of the relation it scanned.
func TestWalkResetsCursors(t *testing.T) {
	info := mustAnalyze(t, `p(X, S) :- e(X, Y), e(Y, Z), add(Y, Z, S).`)
	db := NewDatabase()
	for i := int64(0); i < 40; i++ {
		_ = db.Add("e", value.Ints(i, (i+1)%40))
	}
	db.Freeze()
	cc, err := compileClause(info.Strata[0].Clauses[0], nil, func(string) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	derived := 0
	rn := runner{
		resolve: func(*compiledLit) (*relation.Relation, error) { return db.Relation("e"), nil },
		stats:   &Stats{},
		derive: func(*compiledClause, []value.Value, value.Tuple) error {
			derived++
			return nil
		},
	}
	if err := rn.run(cc, -1, nil); err != nil {
		t.Fatal(err)
	}
	if derived != 40 || cap(cc.iters[0].buf) == 0 {
		t.Fatalf("walk derived %d heads, scan buffer capacity %d; want 40 and a buffer", derived, cap(cc.iters[0].buf))
	}
	for i, it := range cc.iters {
		for _, tu := range it.buf[:cap(it.buf)] {
			if tu != nil {
				t.Fatalf("cursor %d still buffers tuple %v", i, tu)
			}
		}
		if !reflect.DeepEqual(it, litIter{buf: it.buf[:0]}) {
			t.Fatalf("cursor %d not reset: %+v", i, it)
		}
	}
}
