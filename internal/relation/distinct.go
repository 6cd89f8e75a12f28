package relation

import (
	"slices"

	"idlog/internal/value"
)

// DistinctCounts reports the exact number of distinct values in each
// column, the planner's selectivity input. Only a frozen relation whose
// tuples live in memory answers (ok is true). The counts are taken on
// the first request, once per frozen flat relation, and published
// through one atomic slot like the secondary indexes; a frozen version
// answers with its base's counts, which differ from its own by at most
// the version's private part. A mutable relation could change under the
// counts, and counting a TupleSource-backed one would read every tuple
// of its source, so both report ok false and the caller keeps its
// fallback estimate. The returned slice must not be mutated.
func (r *Relation) DistinctCounts() (ndv []int, ok bool) {
	if !r.frozen {
		return nil, false
	}
	b := r
	if r.base != nil {
		b = r.base
	}
	if b.src != nil {
		return nil, false
	}
	if p := b.ndv.Load(); p != nil {
		return *p, true
	}
	b.buildMu.Lock()
	defer b.buildMu.Unlock()
	if p := b.ndv.Load(); p != nil {
		return *p, true // lost the race; reuse the winner's counts
	}
	ndv = b.countDistinct()
	b.ndv.Store(&ndv)
	return ndv, true
}

// countDistinct counts the distinct values in each column of an
// in-memory flat relation. Each sort is counted on its own (a symbol
// and a number with the same bits are different values) from the
// value's own bits, so the counts are exact and depend on no hash.
func (r *Relation) countDistinct() []int {
	ndv := make([]int, r.arity)
	buf := make([]uint64, r.mem.n) // symbols fill it from the front, numbers from the back
	for c := range ndv {
		i, j := 0, len(buf)
		for k := range r.mem.n {
			if v := r.mem.at(k, r.arity)[c]; v.Sort == value.U {
				buf[i] = uint64(v.Sym)
				i++
			} else {
				j--
				buf[j] = uint64(v.Num)
			}
		}
		ndv[c] = distinctIn(buf[:i]) + distinctIn(buf[j:])
	}
	return ndv
}

// distinctIn counts the distinct elements of xs, which it may reorder.
// Dense values — interned symbols, node numbers — go through a bitset
// over [min, max], at most one word per element; sparse ones are sorted.
// The bitset is there for speed: a CLI run counts its input once per
// process, so counting is part of every run, and sorting a 20 000-edge
// relation's two columns instead costs a few milliseconds each time.
func distinctIn(xs []uint64) int {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := slices.Min(xs), slices.Max(xs)
	n := 0
	if hi-lo < 64*uint64(len(xs)) {
		bits := make([]uint64, (hi-lo)>>6+1)
		for _, x := range xs {
			w, b := (x-lo)>>6, uint64(1)<<((x-lo)&63)
			if bits[w]&b == 0 {
				bits[w] |= b
				n++
			}
		}
		return n
	}
	slices.Sort(xs)
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			n++
		}
	}
	return n
}
