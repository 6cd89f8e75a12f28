package relation

import (
	"math/bits"
	"sort"

	"idlog/internal/value"
)

// This file holds the machinery shared by every source-backed relation
// (disk segments and versions of a frozen relation): the patch of
// source positions that swap-remove overwrote, swap-remove itself, the
// probe of a version, and compaction.

// compactDiv bounds a version's private part: once its overlay, patches
// and cut-off base positions exceed 1/compactDiv of the base, compact
// folds the version into a flat relation. The private part is what a
// later Clone copies and what a version's own indexes cover, so the
// bound caps both at a small share of the relation, while a fold (an
// O(n) rebuild of the primary table; secondary indexes rebuild lazily)
// is paid once per that many changed positions.
const compactDiv = 32

// patched reports whether source position i (< nsrc) was overwritten.
func (r *Relation) patched(i int) bool {
	return len(r.patch) > 0 && r.pbits[i>>6]&(1<<(uint(i)&63)) != 0
}

// setPatch records t at source position i (< nsrc).
func (r *Relation) setPatch(i int, t value.Tuple) {
	if r.patch == nil {
		r.patch = map[int]value.Tuple{}
		r.pbits = make([]uint64, (r.nsrc+63)>>6)
	}
	r.patch[i] = t
	r.pbits[i>>6] |= 1 << (uint(i) & 63)
}

// unpatch drops the patch at source position i, if any.
func (r *Relation) unpatch(i int) {
	if r.patched(i) {
		delete(r.patch, i)
		r.pbits[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// eachPatch calls fn on every patched position in ascending order.
func (r *Relation) eachPatch(fn func(pos int, t value.Tuple) bool) {
	if len(r.patch) == 0 {
		return
	}
	for w, word := range r.pbits {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			fn(i, r.patch[i])
			word &= word - 1
		}
	}
}

// miss ends a primary-table lookup that found nothing (see
// table.lookup): -1 for a flat relation; for a version, whose own table
// holds only the positions it owns, the base's position for t when this
// version neither patched nor cut it off.
func (r *Relation) miss(t value.Tuple, h uint64) int {
	if r.base == nil {
		return -1
	}
	return r.baseLookup(t, h)
}

// baseLookup is miss for a version, kept apart so that miss stays small
// enough to inline into table.lookup: a flat relation's miss (every new
// insert) then costs one nil check.
func (r *Relation) baseLookup(t value.Tuple, h uint64) int {
	if p := r.base.primary.lookup(r.base, t, h); p >= 0 && p < r.nsrc && !r.patched(p) {
		return p
	}
	return -1
}

// owns reports whether r's own primary table and secondary indexes hold
// position i: every position of a flat relation, and the patched and
// overlay positions of a version (the base's structures hold the rest).
func (r *Relation) owns(i int) bool {
	return r.base == nil || i >= r.nsrc || r.patched(i)
}

// removeAt is swap-remove on a source-backed relation: the last tuple
// moves into the vacated position pos (through a patch when pos is a
// source position) and the last position goes away (the overlay shrinks,
// or nsrc does when the overlay is empty). Positions stay dense and the
// resulting order is exactly the in-memory swap-remove's. The primary
// table and indexes of a version change only where it owns positions:
// a base tuple moved into a patch enters them, and a base entry left at
// a cut-off or patched position is filtered by lookup and probe.
func (r *Relation) removeAt(pos int, h uint64) {
	removed := r.At(pos)
	last := r.Len() - 1
	idxs := r.shared.Load()
	if r.owns(pos) {
		r.primary.remove(h, pos)
		if idxs != nil {
			for _, idx := range *idxs {
				idx.remove(removed, pos)
			}
		}
	}
	if pos != last {
		moved, mh, owned := r.At(last), r.HashAt(last), r.owns(last)
		if owned {
			r.primary.updatePos(mh, last, pos)
		} else {
			r.primary.insert(mh, pos)
		}
		if idxs != nil {
			for _, idx := range *idxs {
				if owned {
					idx.update(moved, last, pos)
				} else {
					idx.add(moved, pos)
				}
			}
		}
		if pos < r.nsrc {
			r.setPatch(pos, moved)
		} else {
			r.tuples[pos-r.nsrc] = moved
		}
	}
	if n := len(r.tuples); n > 0 {
		r.tuples[n-1] = nil
		r.tuples = r.tuples[:n-1]
	} else {
		r.nsrc--
		r.unpatch(r.nsrc)
	}
	if r.base != nil {
		r.maybeCompact()
	}
}

// maybeCompact folds a version whose private part has outgrown
// 1/compactDiv of its base (see compactDiv).
func (r *Relation) maybeCompact() {
	nbase := r.base.Len()
	if (len(r.tuples)+len(r.patch)+nbase-r.nsrc)*compactDiv > nbase {
		r.compact()
	}
}

// compact turns the (unfrozen) version r into a flat relation holding
// the same tuples at the same positions. Its source becomes the base's
// own source (a disk segment stays on disk, with the base's and r's
// patches merged over it); everything else moves to the in-memory
// overlay. The primary table is rebuilt from stored hashes, and the
// secondary indexes are dropped, to rebuild on first probe.
func (r *Relation) compact() {
	b, n := r.base, r.Len()
	f := &Relation{name: r.name, arity: r.arity}
	if b.src != nil {
		f.src, f.nsrc = b.src, min(b.nsrc, n)
		set := func(i int) {
			if i < f.nsrc {
				f.setPatch(i, r.At(i))
			}
		}
		for i := range b.patch {
			set(i)
		}
		for i := range r.patch {
			set(i)
		}
		for i := r.nsrc; i < f.nsrc; i++ {
			set(i)
		}
	}
	f.tuples = make([]value.Tuple, 0, n-f.nsrc)
	r.Scan(f.nsrc, n, func(_ int, t value.Tuple) bool {
		f.tuples = append(f.tuples, t)
		return true
	})
	f.primary.presize(n)
	for i := 0; i < n; i++ {
		f.primary.insert(f.HashAt(i), i)
	}
	r.base, r.src, r.nsrc = nil, f.src, f.nsrc
	r.tuples, r.patch, r.pbits, r.primary = f.tuples, f.patch, f.pbits, f.primary
	r.shared.Store(nil)
}

// probeVersion answers Probe on a version: the base's bucket minus the
// positions this version patched or cut off, plus the hits of its own
// index over patches and overlay, in ascending position order — the
// order a freshly built index of the same relation would give. When
// nothing is dropped or added, the base's bucket is returned as is.
func (r *Relation) probeVersion(cols []int, key value.Tuple) []int {
	shared := r.base.Probe(cols, key)
	var own []int
	if len(r.tuples) > 0 || len(r.patch) > 0 {
		own = r.ensureIndex(cols).get(key)
	}
	live := func(p int) bool { return p < r.nsrc && !r.patched(p) }
	if len(own) == 0 {
		i := 0
		for i < len(shared) && live(shared[i]) {
			i++
		}
		if i == len(shared) {
			return shared
		}
	}
	out := make([]int, 0, len(shared)+len(own))
	for _, p := range shared {
		if live(p) {
			out = append(out, p)
		}
	}
	if len(own) > 0 {
		out = append(out, own...)
		sort.Ints(out)
	}
	return out
}
