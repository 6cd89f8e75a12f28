package core

import (
	"slices"
	"testing"

	"idlog/internal/relation"
	"idlog/internal/value"
)

// TestOverestimateReadsNoOldViewAtTheDeltaPosition runs a live view's
// deletion candidates for far(X, Y) :- tc(X, Y), not marked(Y) over a
// deletion from tc, a lower stratum (far negates the derived marked). The only literal reading tc sits at the delta
// position and reads the deletions, so the pass must never ask oldOf for
// tc's old view (which a live view builds by cloning the whole
// relation). The candidate far(1, 3) lost its one derivation, so its
// check disproves it.
func TestOverestimateReadsNoOldViewAtTheDeltaPosition(t *testing.T) {
	info := mustAnalyze(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- tc(X, Z), e(Z, Y).
		marked(X) :- m(X).
		far(X, Y) :- tc(X, Y), not marked(Y).
	`)
	rels := map[string]*relation.Relation{}
	add := func(pred string, tuples ...value.Tuple) {
		if rels[pred] == nil {
			rels[pred] = relation.New(pred, info.Arity[pred])
		}
		for _, tup := range tuples {
			rels[pred].MustInsert(tup)
		}
	}
	add("e", value.Ints(1, 2), value.Ints(2, 3))
	add("m", value.Ints(2))
	add("marked", value.Ints(2))
	// tc(1, 3) is deleted: the lower stratum's relation no longer holds it.
	add("tc", value.Ints(1, 2), value.Ints(2, 3))
	add("far", value.Ints(2, 3), value.Ints(1, 3))

	si, ci := -1, -1
	for i, s := range info.Strata {
		for j, c := range s.Components {
			if slices.Contains(c.Preds, "far") {
				si, ci = i, j
			}
		}
	}
	cs, err := CompileStratum(info, si, rels, map[string]*relation.Relation{})
	if err != nil {
		t.Fatal(err)
	}
	dels := relation.New("tc", 2)
	dels.MustInsert(value.Ints(1, 3))
	var asked []string
	oldOf := func(pred string) *relation.Relation {
		asked = append(asked, pred)
		return rels[pred]
	}
	if cs.Components() != ci+1 {
		t.Fatalf("far's stratum has %d components, want far's last", cs.Components())
	}
	od, cands, err := NewPass(info, rels, map[string]*relation.Relation{}, Options{}).
		Delete(cs, map[string]*relation.Relation{"tc": dels}, oldOf)
	if err != nil {
		t.Fatal(err)
	}
	if cands != 1 {
		t.Fatalf("%d candidates, want 1", cands)
	}
	if slices.Contains(asked, "tc") {
		t.Fatalf("oldOf asked for %v; tc is read only at the delta position", asked)
	}
	if far := od["far"]; far == nil || far.Len() != 1 || !far.Contains(value.Ints(1, 3)) {
		t.Fatalf("disproved = %v, want far{(1, 3)}", od["far"])
	}
}
