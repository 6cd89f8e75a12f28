package core

import (
	"testing"

	"idlog/internal/value"
)

func TestApplyBasics(t *testing.T) {
	db := NewDatabase()
	_ = db.AddAll("e", value.Strs("a", "b"), value.Strs("b", "c"))
	db.Freeze()

	next, delta, err := db.Apply(
		[]Fact{{Pred: "e", Tuple: value.Strs("c", "d")}, {Pred: "n", Tuple: value.Strs("x")}},
		[]Fact{{Pred: "e", Tuple: value.Strs("a", "b")}})
	if err != nil {
		t.Fatal(err)
	}
	// The receiver is untouched; the result carries the change and the
	// receiver's frozen-ness.
	if db.Relation("e").Len() != 2 || db.Relation("n") != nil {
		t.Fatalf("receiver mutated: e=%s", db.Relation("e"))
	}
	if !next.Frozen() {
		t.Fatal("result of Apply on frozen db is not frozen")
	}
	e := next.Relation("e")
	if e.Len() != 2 || e.Contains(value.Strs("a", "b")) || !e.Contains(value.Strs("c", "d")) {
		t.Fatalf("e after apply: %s", e)
	}
	if next.Relation("n").Len() != 1 {
		t.Fatalf("new relation n: %v", next.Relation("n"))
	}
	if delta.InsertCount() != 2 || delta.DeleteCount() != 1 {
		t.Fatalf("delta: +%d -%d", delta.InsertCount(), delta.DeleteCount())
	}
}

func TestApplyEffectiveDeltaExcludesNoops(t *testing.T) {
	db := NewDatabase()
	_ = db.AddAll("p", value.Strs("a"))
	next, delta, err := db.Apply(
		[]Fact{{Pred: "p", Tuple: value.Strs("a")}}, // already present
		[]Fact{{Pred: "p", Tuple: value.Strs("z")}}) // absent
	if err != nil {
		t.Fatal(err)
	}
	if delta.InsertCount()+delta.DeleteCount() != 0 {
		t.Fatalf("no-op mutations produced delta +%d -%d", delta.InsertCount(), delta.DeleteCount())
	}
	if next.Relation("p").Len() != 1 {
		t.Fatalf("p: %s", next.Relation("p"))
	}
	if next.Frozen() {
		t.Fatal("unfrozen receiver produced frozen result")
	}
}

func TestApplyDeleteThenInsertSameFact(t *testing.T) {
	db := NewDatabase()
	_ = db.AddAll("p", value.Strs("a"))
	f := []Fact{{Pred: "p", Tuple: value.Strs("a")}}
	next, delta, err := db.Apply(f, f)
	if err != nil {
		t.Fatal(err)
	}
	if !next.Relation("p").Contains(value.Strs("a")) {
		t.Fatal("delete-then-insert lost the fact")
	}
	// Both effects are recorded: remove-then-add.
	if delta.DeleteCount() != 1 || delta.InsertCount() != 1 {
		t.Fatalf("delta: +%d -%d", delta.InsertCount(), delta.DeleteCount())
	}
}

func TestApplyValidatesWholeBatchFirst(t *testing.T) {
	db := NewDatabase()
	_ = db.AddAll("p", value.Strs("a"))
	// Arity mismatch deep in the batch: nothing is applied.
	_, _, err := db.Apply(
		[]Fact{{Pred: "q", Tuple: value.Strs("x")}, {Pred: "p", Tuple: value.Strs("a", "b")}}, nil)
	if err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if db.Relation("q") != nil {
		t.Fatal("partial application before validation failure")
	}
	// Delete from unknown relation.
	if _, _, err := db.Apply(nil, []Fact{{Pred: "nope", Tuple: value.Strs("x")}}); err == nil {
		t.Fatal("delete from unknown relation accepted")
	}
	// New relation's arity is fixed by its first insert in the batch.
	if _, _, err := db.Apply([]Fact{
		{Pred: "r", Tuple: value.Strs("x", "y")},
		{Pred: "r", Tuple: value.Strs("x")},
	}, nil); err == nil {
		t.Fatal("inconsistent arities within batch accepted")
	}
}
