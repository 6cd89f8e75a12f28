package relation

import (
	"fmt"
	"math/bits"
	"slices"

	"idlog/internal/value"
)

// MaterializeIDBounded builds the ID-relation of r on the 0-based
// grouping columns under the given oracle (§2.1): an (arity+1)-column
// relation in which every tuple of r is extended with its
// tuple-identifier, a sort-i value that is unique within the tuple's
// sub-relation. The resulting relation is named name (conventionally
// "p[s]" for predicate p grouped by s).
//
// When bound is positive, only tuples receiving a tid < bound are
// materialized. This implements the optimization of the paper's
// footnote 6: a query such as "emp[2](N, D, T), T < 2" provably never
// reads tids ≥ 2, so only two tuples per group need to exist. bound = 0
// materializes the full ID-relation. The pruned relation is exactly the
// restriction of the full one to tids < bound, in the same order:
// groups by key, then members by tid under a priority numbering, or by
// canonical rank under a rank numbering (see Numbering).
//
// Neither numbering sorts a bounded group. Under a priority numbering
// a small bound keeps the bound lowest priorities of every group in one
// pass over r, and collects no group; under a rank numbering the
// members of the ranks that receive a tid < bound are selected in
// place, and the rest stay unordered.
func MaterializeIDBounded(r *Relation, name string, cols []int, o Oracle, bound int) (*Relation, error) {
	for _, c := range cols {
		if c < 0 || c >= r.arity {
			return nil, fmt.Errorf("ID-relation of %s: grouping column %d out of range for arity %d", r.name, c+1, r.arity)
		}
	}
	nb := o.Numbering(r.name, cols)
	switch {
	case nb.Perm != nil:
		return materializeRanked(r, name, cols, nb.Perm, bound)
	case bound > 0 && bound <= maxTopK:
		return materializeTopK(r, name, cols, nb.Salt, bound), nil
	default:
		return materializePriority(r, name, cols, nb.Salt, bound), nil
	}
}

// maxTopK is the largest bound materializeTopK serves. It keeps bound
// slots per group, so a larger bound over many small groups would
// reserve more than the members it keeps; such bounds sort each group.
const maxTopK = 8

// idWriter inserts the tuples of an ID-relation, each its base tuple
// extended with a tid, through one scratch tuple: the output relation
// copies each into its arena.
type idWriter struct {
	out *Relation
	ext value.Tuple
}

func newIDWriter(name string, arity, count int) idWriter {
	return idWriter{out: NewSized(name, arity+1, count), ext: make(value.Tuple, arity+1)}
}

func (w *idWriter) emit(t value.Tuple, tid int) {
	copy(w.ext, t)
	w.ext[len(t)] = value.Int(int64(tid))
	w.out.MustInsert(w.ext)
}

// materializeRanked numbers every group's canonical ranks with the
// permutation permOf returns for it.
func materializeRanked(r *Relation, name string, cols []int, permOf func(value.Tuple, int) []int, bound int) (*Relation, error) {
	groups := r.group(cols)
	count := 0
	for _, g := range groups {
		count += emitted(len(g.Members), bound)
	}
	w := newIDWriter(name, r.arity, count)
	var ranks []int
	for _, g := range groups {
		n := len(g.Members)
		perm := permOf(g.Key, n)
		if err := checkPerm(perm, n); err != nil {
			return nil, fmt.Errorf("ID-relation of %s on %v: %w", r.name, cols, err)
		}
		if emitted(n, bound) == n {
			slices.SortFunc(g.Members, value.Tuple.Compare)
			for rank, t := range g.Members {
				w.emit(t, perm[rank])
			}
			continue
		}
		ranks = ranks[:0]
		for rank, tid := range perm {
			if tid < bound {
				ranks = append(ranks, rank)
			}
		}
		selectRanks(g.Members, 0, ranks, 2*bits.Len(uint(n)))
		for _, rank := range ranks {
			w.emit(g.Members[rank], perm[rank])
		}
	}
	return w.out, nil
}

// priority is t's priority under a priority numbering with the given
// salt: the hashes of t's values folded, in order, into the salt. It
// reads only t's content, so it is the same in every process.
func priority(t value.Tuple, salt uint64) uint64 {
	h := salt
	for _, v := range t {
		h = value.CombineHash(h, v.Hash())
	}
	return h
}

// prioritized is a member with its priority under a priority numbering.
type prioritized struct {
	p uint64
	t value.Tuple
}

// comparePrioritized orders members by tid: by priority, then, on a
// hash collision, canonically.
func comparePrioritized(a, b prioritized) int {
	switch {
	case a.p < b.p:
		return -1
	case a.p > b.p:
		return 1
	}
	return a.t.Compare(b.t)
}

// materializePriority sorts every group by priority and emits the
// members below the bound (all of them at bound 0) in tid order.
func materializePriority(r *Relation, name string, cols []int, salt uint64, bound int) *Relation {
	groups := r.group(cols)
	count := 0
	for _, g := range groups {
		count += emitted(len(g.Members), bound)
	}
	w := newIDWriter(name, r.arity, count)
	var ranked []prioritized
	for _, g := range groups {
		ranked = ranked[:0]
		for _, t := range g.Members {
			ranked = append(ranked, prioritized{priority(t, salt), t})
		}
		slices.SortFunc(ranked, comparePrioritized)
		for tid, m := range ranked[:emitted(len(ranked), bound)] {
			w.emit(m.t, tid)
		}
	}
	return w.out
}

// topSlot is a member a group keeps: its priority and its position in
// the base.
type topSlot struct {
	p   uint64
	pos int32
}

// materializeTopK keeps the k lowest priorities of every group in one
// pass over r: each group found by a grouper holds k slots sorted by
// (priority, canonical order), and a member is compared canonically
// only when its priority ties a kept one's. Groups are then emitted in
// key order, each one's slots in tid order.
func materializeTopK(r *Relation, name string, cols []int, salt uint64, k int) *Relation {
	gr := newGrouper(cols)
	var kept []int      // slots filled per group, ≤ k
	var slots []topSlot // k per group, group g's at [g*k, g*k+k)
	r.Scan(0, -1, func(i int, t value.Tuple) bool {
		gid := int(gr.id(t))
		if gid == len(kept) {
			kept = append(kept, 0)
			for range k {
				slots = append(slots, topSlot{})
			}
		}
		p := priority(t, salt)
		top := slots[gid*k : gid*k+k]
		before := func(s topSlot) bool {
			return p < s.p || p == s.p && t.Compare(r.At(int(s.pos))) < 0
		}
		j := kept[gid]
		if j == k {
			if !before(top[k-1]) {
				return true
			}
			j--
		} else {
			kept[gid]++
		}
		for ; j > 0 && before(top[j-1]); j-- {
			top[j] = top[j-1]
		}
		top[j] = topSlot{p, int32(i)}
		return true
	})

	count := 0
	for _, n := range kept {
		count += n
	}
	w := newIDWriter(name, r.arity, count)
	for _, g := range gr.sorted() {
		for tid, s := range slots[int(g)*k : int(g)*k+kept[g]] {
			w.emit(r.At(int(s.pos)), tid)
		}
	}
	return w.out
}

// emitted is the number of tuples a group of n members contributes to
// an ID-relation pruned at bound (0 = unpruned).
func emitted(n, bound int) int {
	if bound > 0 && bound < n {
		return bound
	}
	return n
}

// selectRanks reorders ms, the window of a group starting at canonical
// rank lo, so that ms[k-lo] holds the member of canonical rank k for
// every k in ranks (ascending), as a full sort would place it, without
// ordering the rest. It is a multi-rank quickselect on Tuple.Compare:
// expected O(n) for a few ranks. Past depth partitioning rounds the
// window is sorted instead, so the worst case stays O(n log n).
func selectRanks(ms []value.Tuple, lo int, ranks []int, depth int) {
	for len(ranks) > 0 {
		if len(ms) <= 12 || depth == 0 {
			slices.SortFunc(ms, value.Tuple.Compare)
			return
		}
		depth--
		p := partition(ms)
		i, found := slices.BinarySearch(ranks, lo+p)
		left, right := ranks[:i], ranks[i:]
		if found {
			right = right[1:]
		}
		selectRanks(ms[:p], lo, left, depth)
		ms, lo, ranks = ms[p+1:], lo+p+1, right
	}
}

// partition splits ms (distinct tuples, len ≥ 3) around the median of
// its first, middle and last members and returns the pivot's index:
// every member before it is smaller, every member after it larger.
func partition(ms []value.Tuple) int {
	last := len(ms) - 1
	m := medianOf3(ms, 0, last/2, last)
	ms[m], ms[last] = ms[last], ms[m]
	pivot := ms[last]
	i := 0
	for j := 0; j < last; j++ {
		if ms[j].Compare(pivot) < 0 {
			ms[i], ms[j] = ms[j], ms[i]
			i++
		}
	}
	ms[i], ms[last] = ms[last], ms[i]
	return i
}

// medianOf3 returns whichever of the indexes a, b, c holds the median
// of the three members.
func medianOf3(ms []value.Tuple, a, b, c int) int {
	if ms[a].Compare(ms[b]) > 0 {
		a, b = b, a
	}
	if ms[b].Compare(ms[c]) <= 0 {
		return b
	}
	if ms[a].Compare(ms[c]) > 0 {
		return a
	}
	return c
}
