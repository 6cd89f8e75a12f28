package relation

import "idlog/internal/value"

// TupleSource is the plug point for alternative tuple storage: an
// immutable, position-addressed tuple sequence that a Relation built
// with NewStored reads through instead of its in-memory arena. The
// primary hash table and all secondary indexes stay in the Relation and
// address tuples by position, so one index implementation serves every
// backing. internal/segment provides the disk-backed implementation
// (CRC-checksummed block files behind an LRU block cache).
//
// Implementations must be safe for concurrent readers: a frozen
// disk-backed relation is shared across evaluation goroutines exactly
// like an in-memory one.
type TupleSource interface {
	// Len is the number of tuples; positions are 0..Len()-1.
	Len() int
	// At returns the tuple at position i. The returned tuple must not
	// be mutated.
	At(i int) value.Tuple
	// HashAt returns value.Tuple.Hash() of the tuple at position i
	// without necessarily decoding it (segments store the hash array in
	// their footer), which makes index construction and fingerprints
	// metadata-only operations. The hash is keyed on the tuple's
	// content, not on symbol IDs, so a stored hash is valid in every
	// process, whatever order it interned its constants in.
	HashAt(i int) uint64
	// Scan streams positions [lo, hi) in order; fn returning false
	// stops the scan and makes Scan report false. Implementations
	// should decode block-at-a-time rather than calling At per
	// position.
	Scan(lo, hi int, fn func(pos int, t value.Tuple) bool) bool
}

// NewStored builds a relation whose first src.Len() positions are
// served by src: the primary hash table is constructed from the
// source's hash array (no tuple decoding), later Inserts accumulate in
// a private in-memory overlay at positions ≥ src.Len(), and Remove
// overwrites source positions through a patch (sources are immutable).
// The relation starts unfrozen so WAL-tail replay can extend it; Freeze
// it before sharing, like any other relation.
func NewStored(name string, arity int, src TupleSource) *Relation {
	r := &Relation{name: name, arity: arity, src: src, nsrc: src.Len()}
	// Genuine hash collisions land as separate entries; lookup resolves
	// them with full Tuple.Equal checks, same as the in-memory path.
	for i := 0; i < r.nsrc; i++ {
		r.primary.insert(src.HashAt(i), i)
	}
	return r
}

// SourceLen reports how many of r's tuples are served by a pluggable
// TupleSource such as a disk segment (0 for purely in-memory relations,
// versions of them included): the source positions not overwritten by a
// patch. Len() - SourceLen() is in memory; observability surfaces (REPL
// :db, idlogd /metrics) use the split to show where a relation's bytes
// live.
func (r *Relation) SourceLen() int {
	if r.base == nil {
		return r.nsrc - len(r.patch)
	}
	b := r.base
	n := min(r.nsrc, b.nsrc)
	over := 0
	for i := range r.patch {
		if i < n {
			over++
		}
	}
	for i := range b.patch {
		if i < n && !r.patched(i) {
			over++
		}
	}
	return n - over
}
