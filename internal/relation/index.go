package relation

import (
	"sync/atomic"

	"idlog/internal/value"
)

// indexedTuples counts tuples entered into secondary indexes during
// one-shot index builds, process-wide. Partition-pruned evaluation
// shows up here: a partition whose delta part stays empty never probes
// and therefore never pays its index build, so the counter measures
// the index-volume reduction the E19 benchmark reports on single-core
// hardware (where wall-clock parallel speedup is unobservable).
var indexedTuples atomic.Uint64

// IndexedTuplesTotal reports how many tuples have been entered into
// secondary indexes by index builds in this process.
func IndexedTuplesTotal() uint64 { return indexedTuples.Load() }

// secondary is a hash index over a subset of columns, mapping the 64-bit
// hash of the projection onto those columns to the positions of matching
// tuples. Buckets carry a representative projection and chain on genuine
// hash collisions, so probes never confuse distinct keys; probe keys are
// hashed in place (ProjectHash) with no marshaling or allocation.
type secondary struct {
	cols    []int
	buckets map[uint64]*ibucket
}

// ibucket holds the positions of the tuples sharing one projection. key
// is an owned representative copy of that projection; next chains
// buckets whose distinct projections share a 64-bit hash.
type ibucket struct {
	key       value.Tuple
	positions []int
	next      *ibucket
}

// matches reports whether t's projection onto cols equals the bucket key.
func (b *ibucket) matches(t value.Tuple, cols []int) bool {
	for i, c := range cols {
		if !t[c].Equal(b.key[i]) {
			return false
		}
	}
	return true
}

func (ix *secondary) add(t value.Tuple, pos int) {
	h := t.ProjectHash(ix.cols)
	head := ix.buckets[h]
	for b := head; b != nil; b = b.next {
		if b.matches(t, ix.cols) {
			b.positions = append(b.positions, pos)
			return
		}
		secondaryHashCollisions.Add(1)
	}
	ix.buckets[h] = &ibucket{key: t.Project(ix.cols), positions: []int{pos}, next: head}
}

// remove deletes tuple position pos (holding tuple t) from the index,
// unlinking the bucket if it empties.
func (ix *secondary) remove(t value.Tuple, pos int) {
	h := t.ProjectHash(ix.cols)
	var prev *ibucket
	for b := ix.buckets[h]; b != nil; prev, b = b, b.next {
		if !b.matches(t, ix.cols) {
			continue
		}
		for i, p := range b.positions {
			if p == pos {
				b.positions = append(b.positions[:i], b.positions[i+1:]...)
				break
			}
		}
		if len(b.positions) == 0 {
			if prev == nil {
				if b.next == nil {
					delete(ix.buckets, h)
				} else {
					ix.buckets[h] = b.next
				}
			} else {
				prev.next = b.next
			}
		}
		return
	}
}

// update re-points tuple t's entry from oldPos to newPos after a
// swap-remove moved it.
func (ix *secondary) update(t value.Tuple, oldPos, newPos int) {
	h := t.ProjectHash(ix.cols)
	for b := ix.buckets[h]; b != nil; b = b.next {
		if !b.matches(t, ix.cols) {
			continue
		}
		for i, p := range b.positions {
			if p == oldPos {
				b.positions[i] = newPos
				return
			}
		}
		return
	}
}

func sameCols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ensureIndex builds (or fetches) the secondary index on cols. All
// relations — frozen or not — share one publication path: concurrent
// probes read the published index list with one atomic load (a linear
// scan over the few indexes, no allocation on the hot probe path); a
// miss builds the index under buildMu and publishes a fresh copy of
// the list, never mutating a slice another goroutine may be scanning.
// Published indexes are maintained by store() on every later insert and
// patched by Remove on every deletion.
func (r *Relation) ensureIndex(cols []int) *secondary {
	if cur := r.shared.Load(); cur != nil {
		for _, ix := range *cur {
			if sameCols(ix.cols, cols) {
				return ix
			}
		}
	}
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	var have []*secondary
	if cur := r.shared.Load(); cur != nil {
		have = *cur
		for _, ix := range have {
			if sameCols(ix.cols, cols) {
				return ix // lost the build race; reuse the winner's index
			}
		}
	}
	ix := r.buildIndex(cols)
	next := make([]*secondary, len(have), len(have)+1)
	copy(next, have)
	next = append(next, ix)
	r.shared.Store(&next)
	return ix
}

// buildIndex scans the relation once and constructs the index on cols.
func (r *Relation) buildIndex(cols []int) *secondary {
	// Pre-size the bucket map for the current length, an upper bound on
	// distinct keys, saving incremental map growth during the build scan.
	ix := &secondary{cols: append([]int(nil), cols...), buckets: make(map[uint64]*ibucket, r.Len())}
	r.Scan(0, -1, func(pos int, t value.Tuple) bool {
		ix.add(t, pos)
		return true
	})
	indexedTuples.Add(uint64(r.Len()))
	return ix
}

// Probe returns the positions of the tuples whose projection onto cols
// equals key (a tuple of len(cols) values). An index on cols is built on
// first use and maintained by subsequent inserts and removals.
func (r *Relation) Probe(cols []int, key value.Tuple) []int {
	if len(cols) == 0 {
		// Degenerate probe: every tuple matches.
		all := make([]int, r.Len())
		for i := range all {
			all[i] = i
		}
		return all
	}
	ix := r.ensureIndex(cols)
	for b := ix.buckets[key.Hash()]; b != nil; b = b.next {
		if key.Equal(b.key) {
			return b.positions
		}
	}
	return nil
}

// ProbeTuples is Probe but materializes the matching tuples.
func (r *Relation) ProbeTuples(cols []int, key value.Tuple) []value.Tuple {
	pos := r.Probe(cols, key)
	out := make([]value.Tuple, len(pos))
	for i, p := range pos {
		out[i] = r.At(p)
	}
	return out
}

func identityCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}
