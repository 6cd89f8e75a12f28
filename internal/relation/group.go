package relation

import (
	"slices"

	"idlog/internal/value"
)

// Group is one sub-relation of a relation grouped by a set of attributes
// (§2.1): all tuples sharing the same values on the grouping columns.
type Group struct {
	// Key is the projection of the members onto the grouping columns.
	Key value.Tuple
	// Members holds the group's tuples. Groups returns them in
	// canonical (sorted) order, so that callers see a stable
	// presentation regardless of insertion order.
	Members []value.Tuple
}

// Groups partitions r into its sub-relations grouped by the 0-based
// columns. Groups are returned in canonical order of their keys, and
// each group's members in canonical order. An empty column set yields a
// single group containing the whole relation (the "most primitive"
// ID-predicate p[] of the paper's footnote 5).
func (r *Relation) Groups(cols []int) []Group {
	gs := r.group(cols)
	for _, g := range gs {
		slices.SortFunc(g.Members, value.Tuple.Compare)
	}
	return gs
}

// group partitions r by its projection onto cols (see grouper): groups
// in canonical key order, each group's members in position order. Keys
// and members are carved from one backing slice each; every member
// slice is capped at its own length. Members are views of r's tuples
// (see the package comment).
func (r *Relation) group(cols []int) []Group {
	n := r.Len()
	if n == 0 {
		return nil
	}
	gids := make([]int32, n)
	gr := newGrouper(cols)
	var sizes []int
	r.Scan(0, -1, func(i int, t value.Tuple) bool {
		gid := gr.id(t)
		if int(gid) == len(sizes) {
			sizes = append(sizes, 0)
		}
		sizes[gid]++
		gids[i] = gid
		return true
	})
	reps, order := gr.reps, gr.sorted()

	out := make([]Group, len(reps))
	keys := make(value.Tuple, len(reps)*len(cols))
	members := make([]value.Tuple, n)
	fill := make([]int, len(reps)) // next free slot of each group in members
	off := 0
	for i, g := range order {
		key := keys[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]
		for j, c := range cols {
			key[j] = reps[g][c]
		}
		out[i] = Group{Key: key, Members: members[off : off+sizes[g] : off+sizes[g]]}
		fill[g] = off
		off += sizes[g]
	}
	r.Scan(0, -1, func(i int, t value.Tuple) bool {
		members[fill[gids[i]]] = t
		fill[gids[i]]++
		return true
	})
	return out
}

// grouper numbers the distinct projections of tuples onto cols, in
// order of first appearance. Tuples are bucketed by ProjectHash and
// chained on equal projections when hashes collide, as secondary
// indexes do, so no key is encoded.
type grouper struct {
	cols  []int
	heads map[uint64]int32
	reps  []value.Tuple // one member of each group
	next  []int32       // hash-collision chain of group ids, -1 ends
}

func newGrouper(cols []int) grouper {
	return grouper{cols: cols, heads: make(map[uint64]int32)}
}

// id returns t's group id; a new projection gets the next id.
func (gr *grouper) id(t value.Tuple) int32 {
	h := t.ProjectHash(gr.cols)
	head, ok := gr.heads[h]
	if ok {
		for g := head; g >= 0; g = gr.next[g] {
			if sameProjection(gr.reps[g], t, gr.cols) {
				return g
			}
		}
	} else {
		head = -1
	}
	g := int32(len(gr.reps))
	gr.reps = append(gr.reps, t)
	gr.next = append(gr.next, head)
	gr.heads[h] = g
	return g
}

// sorted returns the group ids in canonical key order.
func (gr *grouper) sorted() []int32 {
	order := make([]int32, len(gr.reps))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return compareProjection(gr.reps[a], gr.reps[b], gr.cols) })
	return order
}

// sameProjection reports whether a and b agree on cols.
func sameProjection(a, b value.Tuple, cols []int) bool {
	for _, c := range cols {
		if !a[c].Equal(b[c]) {
			return false
		}
	}
	return true
}

// compareProjection orders a and b by their projections onto cols, as
// Tuple.Compare orders the projected tuples.
func compareProjection(a, b value.Tuple, cols []int) int {
	for _, c := range cols {
		if d := a[c].Compare(b[c]); d != 0 {
			return d
		}
	}
	return 0
}
