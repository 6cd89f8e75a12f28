// Package relation implements relations for the IDLOG engine:
// duplicate-free tuple sets with hash lookup, lazily built secondary
// indexes, grouping into sub-relations, and the materialization of
// ID-relations under pluggable ID-function oracles (§2.1 of the paper).
// Tuples live in memory by default, or behind a pluggable TupleSource
// (see store.go) for disk-backed relations and for versions of a frozen
// relation; the index machinery is shared by every backing.
//
// In memory, a relation keeps its tuples' values in an arena of
// pointer-free chunks (arena.go): storing a tuple copies its values in,
// and At, Scan and Tuples hand out views into the chunks, capped at the
// arity. The contract for those views: a tuple read from an unfrozen
// relation is valid until the next Remove on that relation (which may
// overwrite its slot); views of a frozen relation never change. A
// caller that keeps a view across a Remove on the same relation clones
// it first.
package relation

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"idlog/internal/value"
)

// Relation is a finite, duplicate-free set of same-arity tuples.
// Iteration order (Scan, Tuples) is insertion order, which keeps
// deterministic runs reproducible; use Sorted for a canonical order.
//
// A Relation is not safe for concurrent mutation. Freeze converts it
// into an immutable value that IS safe for concurrent readers: inserts
// are rejected, and any number of goroutines may probe (and thereby
// build indexes on) a frozen relation at once.
//
// Secondary indexes — frozen or not — live behind a single atomic
// copy-on-write publication slot: probes read the index list with one
// atomic load, a miss builds under buildMu and publishes a fresh list,
// and every insert maintains every published index. Unfrozen relations
// therefore also tolerate concurrent *read-only* phases (probes from
// many goroutines while no insert is running).
//
// Tuple storage is position-addressed and split in two: positions
// [0, nsrc) read from an immutable TupleSource (a disk segment, or the
// frozen base of a version), and positions ≥ nsrc from the in-memory
// overlay arena. Swap-remove over a source position writes the moved
// tuple into a small patch instead of the source, so positions stay
// dense (0..Len()-1) whatever the backing. Purely in-memory relations
// have src == nil and nsrc == 0, so the overlay IS the relation and
// every accessor below short-circuits to the arena.
//
// A version (base != nil) is what Clone derives from a frozen relation:
// it reads positions [0, nsrc) through the base and shares the base's
// primary table and published secondary indexes, while its own primary
// table and indexes cover only the positions it owns — patched ones and
// the overlay. A lookup or probe reads the base's structure, drops the
// positions this version patched or cut off (≥ nsrc), and adds the hits
// of its own. Deriving a version therefore costs its private part, not
// the relation; compact folds that part back into a flat relation once
// it outgrows 1/compactDiv of the base.
type Relation struct {
	name  string
	arity int
	// mem is the in-memory overlay: the tuple at arena index i has
	// position nsrc+i. For mem-backed relations (src == nil) it holds
	// everything.
	mem arena
	// src serves positions [0, nsrc) when non-nil. It is immutable and
	// shared across Clone/Freeze/Thaw generations. nsrc only shrinks
	// (swap-remove of the last position when the overlay is empty);
	// source positions past it are dead.
	src  TupleSource
	nsrc int
	// patch holds the source positions swap-remove overwrote, and pbits
	// marks them (one bit per source position) so the hot paths test a
	// position without a map lookup. Both are nil until the first patch.
	patch map[int]value.Tuple
	pbits []uint64
	// base is the frozen flat relation a version reads through (src ==
	// base); nil for flat relations. It is never itself a version, so
	// chains stay one level deep.
	base *Relation
	// primary maps 64-bit tuple hashes to positions (open addressing,
	// Tuple.Equal on hash hits), replacing the former map[string]int
	// over marshaled keys: no per-operation key bytes. On a version it
	// holds only the owned positions.
	primary table

	// appendOnly marks a delta relation (NewDelta): tuples arrive only
	// through Append, which skips the primary hash table entirely. The
	// set-membership operations (Insert/Contains/Remove/Equal) panic on
	// such relations — the caller has contracted to feed distinct tuples
	// and to read only through Len/Scan/At/Probe.
	appendOnly bool

	// frozen (set before sharing by Freeze) rejects further inserts.
	// Secondary indexes are published through shared: written only
	// under buildMu, read with a single atomic load on the probe hot
	// path, and kept current by store() on every insert and Remove on
	// every deletion.
	frozen  bool
	buildMu sync.Mutex
	shared  atomic.Pointer[[]*secondary]
	// mat caches the materialized tuple slice of a frozen relation, so
	// repeated Tuples() calls (snapshot writers, JSON renderers) build
	// the views, and decode a source, once.
	mat atomic.Pointer[[]value.Tuple]
	// ndv holds the per-column distinct counts of a frozen in-memory
	// flat relation once requested (see DistinctCounts). Versions read
	// their base's; a version that compacts never had counts of its
	// own, so once frozen it counts afresh.
	ndv atomic.Pointer[[]int]
}

// New returns an empty relation with the given name and arity.
func New(name string, arity int) *Relation {
	return &Relation{name: name, arity: arity}
}

// NewSized is New with a capacity hint: the first chunk of the arena
// and the primary hash table are pre-sized for about hint tuples, so
// bulk insertion skips the growth-doubling copies and rehashes. The
// hint is advisory — the relation grows past it normally.
func NewSized(name string, arity, hint int) *Relation {
	r := New(name, arity)
	if hint > 0 {
		r.mem.presize(hint, arity)
		r.primary.presize(hint)
	}
	return r
}

// NewDelta returns an append-only relation for semi-naive per-round
// deltas: Append stores a tuple without consulting or maintaining the
// primary hash table, so a round's delta costs one copy into its arena
// per genuinely new tuple instead of a hash insert. The caller contracts
// to Append only distinct tuples (the engine's delta sinks receive a
// tuple exactly when the full relation's insert reported it new) and
// to read the relation only through Len/Scan/At/Probe — Probe works
// because secondary indexes build from Scan, never from the primary
// table. Set-membership operations panic. hint pre-sizes the arena's
// first chunk (0 = no hint).
func NewDelta(name string, arity, hint int) *Relation {
	r := &Relation{name: name, arity: arity, appendOnly: true}
	r.mem.presize(hint, arity)
	return r
}

// Append copies t into an append-only relation (see NewDelta). It
// panics on a set-semantics relation: Append skipping the primary table
// there would silently corrupt membership checks.
func (r *Relation) Append(t value.Tuple) {
	if !r.appendOnly {
		panic(fmt.Sprintf("relation %s: Append on a set-semantics relation", r.name))
	}
	pos := r.mem.n
	t = r.mem.push(t, r.arity)
	if idxs := r.shared.Load(); idxs != nil {
		for _, idx := range *idxs {
			idx.add(t, pos)
		}
	}
}

// setOp panics when a set-membership operation reaches an append-only
// relation — its primary table is empty, so the operation would
// silently report every tuple absent.
func (r *Relation) setOp(op string) {
	if r.appendOnly {
		panic(fmt.Sprintf("relation %s: %s on an append-only delta relation", r.name, op))
	}
}

// FromTuples builds a relation containing the given tuples (duplicates
// collapse). It panics if a tuple has the wrong arity, since that is a
// programming error in test or generator code.
func FromTuples(name string, arity int, tuples ...value.Tuple) *Relation {
	r := New(name, arity)
	for _, t := range tuples {
		r.MustInsert(t)
	}
	return r
}

// Name returns the relation's predicate name.
func (r *Relation) Name() string { return r.name }

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.nsrc + r.mem.n }

// Insert adds a copy of t if absent and reports whether it was added;
// t itself is not kept, so callers may reuse its backing array.
func (r *Relation) Insert(t value.Tuple) (bool, error) {
	_, added, err := r.insert(t)
	return added, err
}

// InsertShared is Insert returning the stored tuple (nil when
// duplicate): a view of the relation's own copy, which callers
// propagate (into a delta, into provenance) instead of t.
func (r *Relation) InsertShared(t value.Tuple) (value.Tuple, error) {
	stored, _, err := r.insert(t)
	return stored, err
}

// insert is the one lookup-and-store path behind Insert and
// InsertShared: unless an equal tuple is present it copies t in, and
// returns the stored view.
func (r *Relation) insert(t value.Tuple) (value.Tuple, bool, error) {
	r.setOp("Insert")
	if r.frozen {
		return nil, false, fmt.Errorf("relation %s: insert into frozen relation", r.name)
	}
	if len(t) != r.arity {
		return nil, false, fmt.Errorf("relation %s: inserting arity-%d tuple into arity-%d relation", r.name, len(t), r.arity)
	}
	h := t.Hash()
	if r.primary.lookup(r, t, h) >= 0 {
		return nil, false, nil
	}
	return r.store(h, t), true, nil
}

// store copies t in at the next position and returns the stored view.
func (r *Relation) store(h uint64, t value.Tuple) value.Tuple {
	pos := r.nsrc + r.mem.n
	t = r.mem.push(t, r.arity)
	r.primary.insert(h, pos)
	// Maintain every published secondary index so probes issued after
	// this insert see the new tuple (insert → probe → insert → probe).
	if idxs := r.shared.Load(); idxs != nil {
		for _, idx := range *idxs {
			idx.add(t, pos)
		}
	}
	if r.base != nil {
		r.maybeCompact()
	}
	return t
}

// Remove deletes t if present and reports whether it was removed.
// Removal uses swap-remove: the last tuple moves into the vacated
// position, so insertion order is perturbed. That is safe for the
// engine because every order-sensitive consumer (oracles, Fingerprint,
// Sorted, Equal) works from canonical or set semantics, never from
// insertion order. Published secondary indexes are patched in place —
// only the removed tuple's entry and the moved tuple's position change —
// so incremental churn keeps its indexes instead of rebuilding them per
// mutation. Frozen relations reject Remove; source-backed relations
// (disk segments, versions) take the same swap-remove through a patch
// (see removeAt), so their source is never copied. The moved tuple's
// values are copied into the vacated slot, so views of the removed and
// the moved position read other values after Remove (see the package
// comment).
func (r *Relation) Remove(t value.Tuple) (bool, error) {
	r.setOp("Remove")
	if r.frozen {
		return false, fmt.Errorf("relation %s: remove from frozen relation", r.name)
	}
	if len(t) != r.arity {
		return false, fmt.Errorf("relation %s: removing arity-%d tuple from arity-%d relation", r.name, len(t), r.arity)
	}
	h := t.Hash()
	pos := r.primary.lookup(r, t, h)
	if pos < 0 {
		return false, nil
	}
	r.removeAt(pos, h)
	return true, nil
}

// MustInsert is Insert for static data; it panics on arity mismatch.
func (r *Relation) MustInsert(t value.Tuple) bool {
	added, err := r.Insert(t)
	if err != nil {
		panic(err)
	}
	return added
}

// Contains reports whether t is in the relation.
func (r *Relation) Contains(t value.Tuple) bool {
	r.setOp("Contains")
	if len(t) != r.arity {
		return false
	}
	return r.primary.lookup(r, t, t.Hash()) >= 0
}

// Lookup returns the position of t, or -1 when absent: the primary-table
// probe behind Contains, for callers that iterate positions (a join
// probe whose key covers every column needs no secondary index).
func (r *Relation) Lookup(t value.Tuple) int {
	r.setOp("Lookup")
	if len(t) != r.arity {
		return -1
	}
	return r.primary.lookup(r, t, t.Hash())
}

// AppendOnly reports whether r is an append-only delta relation (see
// NewDelta), on which the set-membership operations panic.
func (r *Relation) AppendOnly() bool { return r.appendOnly }

// Tuples returns the tuples in position order: a fresh slice of views
// (see the package comment), built once and cached when r is frozen.
// The returned slice and tuples must not be mutated. Hot paths should
// prefer Scan or At, which build no slice.
func (r *Relation) Tuples() []value.Tuple {
	if !r.frozen {
		return r.materialized()
	}
	if p := r.mat.Load(); p != nil {
		return *p
	}
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	if p := r.mat.Load(); p != nil {
		return *p
	}
	all := r.materialized()
	r.mat.Store(&all)
	return all
}

// materialized builds the full position-ordered tuple slice.
func (r *Relation) materialized() []value.Tuple {
	all := make([]value.Tuple, 0, r.Len())
	r.Scan(0, -1, func(_ int, t value.Tuple) bool {
		all = append(all, t)
		return true
	})
	return all
}

// At returns the tuple at position i: on an unfrozen relation a view
// that is valid until the next Remove (see the package comment).
// Overlay positions, and so every position of an in-memory relation,
// read the arena directly.
func (r *Relation) At(i int) value.Tuple {
	if i < r.nsrc {
		return r.srcAt(i)
	}
	return r.mem.at(i-r.nsrc, r.arity)
}

// srcAt returns the tuple at source position i (< nsrc).
func (r *Relation) srcAt(i int) value.Tuple {
	if r.patched(i) {
		return r.patch[i]
	}
	return r.src.At(i)
}

// HashAt returns the stored hash of the tuple at position i, reading it
// from source metadata (no tuple decode) when i is source-resident. With
// At, Len and Scan it makes a frozen relation the TupleSource of its
// versions.
func (r *Relation) HashAt(i int) uint64 {
	if i < r.nsrc {
		if r.patched(i) {
			return r.patch[i].Hash()
		}
		return r.src.HashAt(i)
	}
	return r.mem.at(i-r.nsrc, r.arity).Hash()
}

// Scan streams positions [lo, hi) in order (hi = -1 means Len) without
// materializing source-backed tuples; fn returning false stops the scan
// and makes Scan report false. The tuples are views, as At's are. This
// is the engine's bulk read path: the full-scan join step, index
// construction, grouping, and snapshot writing all iterate through it.
func (r *Relation) Scan(lo, hi int, fn func(pos int, t value.Tuple) bool) bool {
	if hi < 0 || hi > r.Len() {
		hi = r.Len()
	}
	if lo < 0 {
		lo = 0
	}
	if lo < r.nsrc {
		shi := hi
		if shi > r.nsrc {
			shi = r.nsrc
		}
		sfn := fn
		if len(r.patch) > 0 {
			sfn = func(i int, t value.Tuple) bool {
				if r.patched(i) {
					t = r.patch[i]
				}
				return fn(i, t)
			}
		}
		if !r.src.Scan(lo, shi, sfn) {
			return false
		}
		lo = r.nsrc
	}
	for i := lo; i < hi; i++ {
		if !fn(i, r.mem.at(i-r.nsrc, r.arity)) {
			return false
		}
	}
	return true
}

// Sorted returns a new slice of the tuples in canonical order.
func (r *Relation) Sorted() []value.Tuple {
	out := make([]value.Tuple, 0, r.Len())
	r.Scan(0, -1, func(_ int, t value.Tuple) bool {
		out = append(out, t)
		return true
	})
	slices.SortFunc(out, value.Tuple.Compare)
	return out
}

// Clone returns an unfrozen relation with r's tuples whose mutations
// never reach r. The clone of a frozen relation is a version of it: it
// shares r's tuples, primary table and published secondary indexes, so
// deriving it costs nothing per tuple. The clone of a version shares
// the same base and copies only the private part (overlay values,
// patches, own table); an unfrozen flat relation, which may still
// change under the clone, is copied. Cloning an append-only delta
// relation panics: it has no primary table to share or copy.
func (r *Relation) Clone() *Relation {
	r.setOp("Clone")
	c := &Relation{name: r.name, arity: r.arity}
	if r.frozen && r.base == nil {
		c.base, c.src, c.nsrc = r, r, r.Len()
		return c
	}
	c.base, c.src, c.nsrc = r.base, r.src, r.nsrc
	c.mem = r.mem.clone(r.arity)
	c.primary = r.primary.clone()
	if len(r.patch) > 0 {
		c.patch = make(map[int]value.Tuple, len(r.patch))
		for i, t := range r.patch {
			c.patch[i] = t
		}
		c.pbits = append([]uint64(nil), r.pbits...)
	}
	return c
}

// Equal reports set equality with s (names are ignored).
func (r *Relation) Equal(s *Relation) bool {
	if r.arity != s.arity || r.Len() != s.Len() {
		return false
	}
	return r.Scan(0, -1, func(_ int, t value.Tuple) bool {
		return s.primary.lookup(s, t, t.Hash()) >= 0
	})
}

// UnionInto inserts every tuple of s into r, reporting how many were new.
func (r *Relation) UnionInto(s *Relation) (int, error) {
	if s == nil {
		return 0, nil
	}
	if s.arity != r.arity {
		return 0, fmt.Errorf("relation %s: union with arity-%d relation %s", r.name, s.arity, s.name)
	}
	added := 0
	var ierr error
	s.Scan(0, -1, func(_ int, t value.Tuple) bool {
		ok, err := r.Insert(t)
		if err != nil {
			ierr = err
			return false
		}
		if ok {
			added++
		}
		return true
	})
	return added, ierr
}

// Project returns a new relation containing the projection of r onto the
// given 0-based columns (duplicates collapse).
func (r *Relation) Project(name string, cols []int) *Relation {
	out := New(name, len(cols))
	r.Scan(0, -1, func(_ int, t value.Tuple) bool {
		out.MustInsert(t.Project(cols))
		return true
	})
	return out
}

// Filter returns a new relation with the tuples satisfying keep.
func (r *Relation) Filter(name string, keep func(value.Tuple) bool) *Relation {
	out := New(name, r.arity)
	r.Scan(0, -1, func(_ int, t value.Tuple) bool {
		if keep(t) {
			out.MustInsert(t)
		}
		return true
	})
	return out
}

// String renders the relation as "name{(..), (..)}" in canonical order;
// intended for tests and debugging.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(r.name)
	b.WriteByte('{')
	for i, t := range r.Sorted() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Fingerprint returns a canonical string identifying the tuple set,
// independent of insertion order: the hex rendering of a combine over
// the sorted 64-bit tuple hashes (HashAt over every position), seeded
// with the cardinality (so an empty relation differs from a 0-arity
// relation containing the empty tuple). Tuple hashes are keyed on
// content, so set-equal relations have equal fingerprints in every
// process, whatever order constants were interned in; unequal sets
// collide only with the ~2^-64 probability of the underlying hash. A
// segment-backed relation reads the hashes from the segment's footer
// and decodes no block. Used to deduplicate enumerated answers and to
// compare a primary's state with a follower's.
func (r *Relation) Fingerprint() string {
	hs := make([]uint64, r.Len())
	for i := range hs {
		hs[i] = r.HashAt(i)
	}
	slices.Sort(hs)
	h := value.SetHashSeed(len(hs))
	for _, x := range hs {
		h = value.CombineHash(h, x)
	}
	return strconv.FormatUint(h, 16)
}

// DeepClone rebuilds the relation from scratch: unlike Clone, the
// result shares no internal state (indexes, hash table, tuple source,
// base) with r, so it is safe to hand to another goroutine and is always
// purely in-memory. (An unfrozen Relation is not safe for concurrent
// use because secondary indexes build lazily on first probe; Freeze is
// the cheaper alternative when the relation no longer needs to change.)
func (r *Relation) DeepClone() *Relation {
	c := New(r.name, r.arity)
	r.Scan(0, -1, func(_ int, t value.Tuple) bool {
		c.MustInsert(t)
		return true
	})
	return c
}

// Freeze makes the relation immutable and safe for concurrent readers.
// After Freeze, Insert/InsertShared/UnionInto fail, and Probe builds
// its lazy secondary indexes through an atomic copy-on-write protocol
// instead of mutating shared slices in place. Freeze must be called
// before the relation is shared between goroutines (it is not itself a
// synchronization point); freezing twice is a no-op. It returns r for
// chaining.
//
// This is the engine's sharing contract: a server keeps one frozen EDB
// and evaluates any number of programs against it concurrently, with
// all per-run mutable state (IDB work relations, ID-relations,
// compiled clauses, guards) private to each evaluation.
func (r *Relation) Freeze() *Relation {
	if r.frozen {
		return r
	}
	// Indexes built during the mutable phase already live in the shared
	// publication slot and stay usable after the switch.
	r.frozen = true
	return r
}

// Frozen reports whether the relation has been frozen.
func (r *Relation) Frozen() bool { return r.frozen }
