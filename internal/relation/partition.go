package relation

import (
	"fmt"
	"sync/atomic"

	"idlog/internal/value"
)

// This file implements radix hash-partitioning of relations: a
// Partitioned splits a parent relation into n disjoint partition views
// by the 64-bit hash of selected key columns. The partition views are
// lightweight: each holds only a position list into the parent (tuple
// storage is never copied, so disk-backed parents keep their bounded
// residency), exposed as a read-only *Relation through a delegating
// TupleSource. Because a partition view is a real Relation, the whole
// probe machinery — lazy secondary indexes, collision-checked
// buckets — works per partition unchanged: each
// partition owns partition-local indexes covering only its tuples,
// built independently (and therefore in parallel, by whichever worker
// owns the partition) and only for partitions that are actually
// probed.
//
// The partition function is pure content hashing (ProjectHash of the
// key columns), so two relations partitioned on matching columns with
// the same count agree on placement: a delta tuple in partition p can
// only join probe tuples in partition p when the join variable is the
// partition key on both sides. That co-placement is the correctness
// argument of the partitioned semi-naive rounds in internal/core.
//
// Concurrency contract: Refresh (and NewPartitioned) mutate the
// position lists and must run single-threaded — the parallel
// evaluator calls them only from its merge/planning phase, whose
// WaitGroup barrier provides the happens-before edge to the worker
// reads of the next round. Between refreshes any number of goroutines
// may Scan/Probe distinct partitions; probing the same partition from
// two goroutines is safe too (ensureIndex publishes atomically), the
// evaluator just never needs it.

// partitionedTuples counts tuples routed into partition views
// process-wide. Together with IndexedTuplesTotal (index.go) the E19
// bench uses it to show that partition-pruned probing indexes only the
// partitions a query's deltas actually reach.
var partitionedTuples atomic.Uint64

// PartitionedTuplesTotal reports how many tuples have been routed into
// partition views in this process.
func PartitionedTuplesTotal() uint64 { return partitionedTuples.Load() }

// partView is the TupleSource of one partition: position-addressed
// reads delegate to the parent relation through the partition's
// position list. It grows under Refresh (single-threaded, see the
// contract above); TupleSource immutability holds between refreshes,
// which is all the readers ever observe.
type partView struct {
	parent *Relation
	pos    []int
}

func (v *partView) Len() int             { return len(v.pos) }
func (v *partView) At(i int) value.Tuple { return v.parent.At(v.pos[i]) }
func (v *partView) HashAt(i int) uint64  { return v.parent.HashAt(v.pos[i]) }
func (v *partView) Scan(lo, hi int, fn func(pos int, t value.Tuple) bool) bool {
	if hi < 0 || hi > len(v.pos) {
		hi = len(v.pos)
	}
	for i := lo; i < hi; i++ {
		if !fn(i, v.parent.At(v.pos[i])) {
			return false
		}
	}
	return true
}

// Partitioned is a radix partitioning of a relation by key columns:
// tuple t belongs to partition ProjectHash(t, cols) % n. The parent
// may keep growing (a same-stratum relation mid-fixpoint); Refresh
// routes the positions appended since the last call.
type Partitioned struct {
	parent  *Relation
	cols    []int
	views   []*partView
	parts   []*Relation
	scanned int // parent positions routed so far
}

// NewPartitioned partitions r by cols into n ≥ 1 partitions, routing
// every current tuple. r must not shrink afterwards (Remove would
// invalidate positions); the evaluator only ever partitions relations
// it appends to.
func NewPartitioned(r *Relation, cols []int, n int) *Partitioned {
	if n < 1 {
		n = 1
	}
	p := &Partitioned{parent: r, cols: append([]int(nil), cols...)}
	p.views = make([]*partView, n)
	p.parts = make([]*Relation, n)
	for i := range p.parts {
		v := &partView{parent: r}
		p.views[i] = v
		// The partition view is probe/scan-only: appendOnly forbids the
		// set-membership operations (their primary table would be empty)
		// and src-backed positions delegate to the parent.
		p.parts[i] = &Relation{name: r.name, arity: r.arity, appendOnly: true, src: v}
	}
	p.Refresh()
	return p
}

// N returns the partition count.
func (p *Partitioned) N() int { return len(p.parts) }

// Cols returns the partition key columns.
func (p *Partitioned) Cols() []int { return p.cols }

// Part returns partition i as a read-only relation (Scan, At, Probe;
// set-membership operations panic, as on any append-only relation).
func (p *Partitioned) Part(i int) *Relation { return p.parts[i] }

// PartLen returns the tuple count of partition i without touching
// tuple storage.
func (p *Partitioned) PartLen(i int) int { return len(p.views[i].pos) }

// Refresh routes the parent positions appended since the last
// Refresh/NewPartitioned into their partitions, maintaining any
// partition-local indexes already built. Single-threaded; see the
// concurrency contract above.
func (p *Partitioned) Refresh() {
	n := p.parent.Len()
	if p.scanned >= n {
		return
	}
	routed := uint64(n - p.scanned)
	nparts := uint64(len(p.parts))
	p.parent.Scan(p.scanned, n, func(_ int, t value.Tuple) bool {
		k := int(t.ProjectHash(p.cols) % nparts)
		v := p.views[k]
		local := len(v.pos)
		v.pos = append(v.pos, p.scanned)
		part := p.parts[k]
		part.nsrc = len(v.pos)
		if idxs := part.shared.Load(); idxs != nil {
			for _, idx := range *idxs {
				idx.add(t, local)
			}
		}
		p.scanned++
		return true
	})
	partitionedTuples.Add(routed)
}

// Skew reports the imbalance of the current partitioning: the largest
// partition's tuple count over the mean (1.0 = perfectly even, 0 when
// empty).
func (p *Partitioned) Skew() float64 {
	total, max := 0, 0
	for _, v := range p.views {
		total += len(v.pos)
		if len(v.pos) > max {
			max = len(v.pos)
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(p.views))
	return float64(max) / mean
}

// String renders the partition sizes, for tests and debugging.
func (p *Partitioned) String() string {
	sizes := make([]int, len(p.views))
	for i, v := range p.views {
		sizes[i] = len(v.pos)
	}
	return fmt.Sprintf("partitioned(%s by %v into %v)", p.parent.Name(), p.cols, sizes)
}
