package relation

import "idlog/internal/value"

// Store is the storage-engine contract of the evaluator: everything the
// engine (join walk, planner, incremental maintenance, servers) needs
// from a relation, independent of where its tuples live. The in-memory
// *Relation — a 64-bit-hash open-addressing table over a tuple slice —
// is the canonical implementation; disk-backed relations created with
// NewStored over a segment TupleSource satisfy it through the very same
// index machinery, so every access path (probe, scan, containment,
// fingerprint) behaves identically across engines.
//
// The Freeze/COW contract, shared by all implementations:
//
//   - While unfrozen, a Store is single-goroutine: Insert extends it in
//     place and published secondary indexes are maintained per insert.
//   - Freeze makes it immutable and safe for any number of concurrent
//     readers; Insert then fails. Lazy secondary indexes build under a
//     lock and publish atomically (copy-on-write), never mutating a
//     list a reader may be scanning.
//   - Clone/Thaw derive the next snapshot as a version of a frozen
//     store: the successor reads the predecessor's tuples, primary table
//     and published secondary indexes in place, and keeps a private
//     part of its own — an in-memory overlay for inserts and a patch of
//     positions that swap-remove overwrote. Deriving it costs that
//     private part, not the relation. Lookups and probes read the
//     shared structures, drop patched and cut-off positions, and add the
//     private part's hits. Once the private part outgrows a fixed
//     fraction of the base, the version compacts into a flat relation
//     (a disk-backed base keeps its segment as the source).
//   - Deletions from a disk-backed relation go through the same patch:
//     the segment is never promoted to memory.
type Store interface {
	// Name returns the predicate name, Arity the number of columns.
	Name() string
	Arity() int
	// Len is the exact cardinality; EstimateCard is the planner's
	// cost-model input, which an implementation may serve from cheap
	// metadata (both engines here happen to know the exact count).
	Len() int
	EstimateCard() int
	// Insert adds t if absent, reporting whether it was added. Frozen
	// stores reject it.
	Insert(t value.Tuple) (bool, error)
	// Contains reports membership, At returns the tuple at a position,
	// and Scan streams positions [lo, hi) (hi = -1 for the end) without
	// materializing the relation; it reports whether the scan ran to
	// completion (fn returning false stops it early).
	Contains(t value.Tuple) bool
	At(i int) value.Tuple
	Scan(lo, hi int, fn func(pos int, t value.Tuple) bool) bool
	// ProbeIndex returns the positions whose projection onto cols
	// equals key, building (and thereafter maintaining) a secondary
	// index on cols on first use.
	ProbeIndex(cols []int, key value.Tuple) []int
	// Fingerprint is the canonical set identity: equal tuple sets have
	// equal fingerprints regardless of engine, insertion order, or
	// storage layout. The cross-engine differential tests rely on it.
	Fingerprint() string
	// Frozen reports whether Freeze has been called (see the contract
	// above; Freeze itself returns the concrete type for chaining).
	Frozen() bool
}

var _ Store = (*Relation)(nil)

// TupleSource is the plug point for alternative tuple storage: an
// immutable, position-addressed tuple sequence that a Relation built
// with NewStored reads through instead of its in-memory slice. The
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
	// metadata-only operations.
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

// EstimateCard returns the planner's cardinality estimate for r; both
// engines know the exact count, so it equals Len. It exists so the
// cost model consumes the Store contract rather than a concrete field.
func (r *Relation) EstimateCard() int { return r.Len() }

// ProbeIndex is Probe under its Store-contract name.
func (r *Relation) ProbeIndex(cols []int, key value.Tuple) []int {
	return r.Probe(cols, key)
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
