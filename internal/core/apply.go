package core

import (
	"fmt"
	"sort"

	"idlog/internal/relation"
	"idlog/internal/value"
)

// Fact is one ground EDB tuple addressed by predicate name. It is the
// unit of mutation for Database.Apply and the unit of durability for
// the write-ahead log.
type Fact struct {
	Pred  string
	Tuple value.Tuple
}

// String renders the fact as "pred(a, b)".
func (f Fact) String() string { return f.Pred + f.Tuple.String() }

// Delta records the effective change of one Apply: tuples that were
// actually removed and tuples that were actually added, keyed by
// predicate. Requested mutations that were no-ops (deleting an absent
// tuple, inserting a present one) do not appear — the incremental
// maintenance layer depends on that so it never propagates phantom
// changes.
type Delta struct {
	Inserts map[string][]value.Tuple
	Deletes map[string][]value.Tuple
}

// InsertCount returns the number of tuples effectively inserted.
func (d *Delta) InsertCount() int { return countTuples(d.Inserts) }

// DeleteCount returns the number of tuples effectively deleted.
func (d *Delta) DeleteCount() int { return countTuples(d.Deletes) }

// Preds returns the predicates touched by the delta, sorted.
func (d *Delta) Preds() []string {
	seen := map[string]bool{}
	for p := range d.Inserts {
		seen[p] = true
	}
	for p := range d.Deletes {
		seen[p] = true
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func countTuples(m map[string][]value.Tuple) int {
	n := 0
	for _, ts := range m {
		n += len(ts)
	}
	return n
}

// Apply atomically applies a batch of EDB mutations and returns the
// resulting database snapshot plus the effective delta. The receiver is
// never modified: touched relations are clones (for a frozen receiver,
// versions that share the predecessor's tables and indexes, so the
// batch costs its own size), untouched relations are shared, and the
// returned database carries the receiver's frozen-ness (frozen in,
// frozen out), so a server can swap the result into its published
// snapshot slot directly. The result's Parent is the receiver's
// Version.
//
// Within one batch, deletes apply before inserts: a fact present in
// both ends up present, recorded as a delete plus an insert when it
// pre-existed (the incremental layer treats that as remove-then-add,
// which is semantically the identity for EDB facts).
//
// The whole batch validates before any relation is cloned — an arity
// mismatch or a delete against an unknown predicate rejects the batch
// with no partial application. Inserts may create new relations.
func (db *Database) Apply(inserts, deletes []Fact) (*Database, *Delta, error) {
	arities := map[string]int{}
	arityOf := func(f Fact) (int, bool) {
		if a, ok := arities[f.Pred]; ok {
			return a, true
		}
		if r := db.rels[f.Pred]; r != nil {
			arities[f.Pred] = r.Arity()
			return r.Arity(), true
		}
		return 0, false
	}
	for _, f := range deletes {
		a, ok := arityOf(f)
		if !ok {
			return nil, nil, fmt.Errorf("apply: delete from unknown relation %s", f.Pred)
		}
		if len(f.Tuple) != a {
			return nil, nil, fmt.Errorf("apply: delete arity-%d tuple from arity-%d relation %s", len(f.Tuple), a, f.Pred)
		}
	}
	for _, f := range inserts {
		if a, ok := arityOf(f); ok {
			if len(f.Tuple) != a {
				return nil, nil, fmt.Errorf("apply: insert arity-%d tuple into arity-%d relation %s", len(f.Tuple), a, f.Pred)
			}
		} else {
			// First insert into a fresh relation fixes its arity for the
			// rest of the batch.
			arities[f.Pred] = len(f.Tuple)
		}
	}

	out := db.Clone()
	out.parent = db.version
	touched := map[string]*relation.Relation{}
	mutable := func(pred string) *relation.Relation {
		if r, ok := touched[pred]; ok {
			return r
		}
		var r *relation.Relation
		if src := db.rels[pred]; src != nil {
			r = src.Clone()
		} else {
			r = relation.New(pred, arities[pred])
		}
		touched[pred] = r
		out.rels[pred] = r
		return r
	}

	delta := &Delta{Inserts: map[string][]value.Tuple{}, Deletes: map[string][]value.Tuple{}}
	for _, f := range deletes {
		removed, err := mutable(f.Pred).Remove(f.Tuple)
		if err != nil {
			return nil, nil, fmt.Errorf("apply: %w", err)
		}
		if removed {
			delta.Deletes[f.Pred] = append(delta.Deletes[f.Pred], f.Tuple)
		}
	}
	for _, f := range inserts {
		added, err := mutable(f.Pred).Insert(f.Tuple)
		if err != nil {
			return nil, nil, fmt.Errorf("apply: %w", err)
		}
		if added {
			delta.Inserts[f.Pred] = append(delta.Inserts[f.Pred], f.Tuple)
		}
	}
	if db.frozen {
		out.Freeze()
	}
	return out, delta, nil
}
