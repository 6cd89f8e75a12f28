package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"idlog/internal/analysis"
)

// PlanCache memoizes compiled component plans across evaluations of
// the same program over the same database snapshot, so a repeated query
// skips plan compilation (cardinality estimation, selectivity ordering,
// delta-variant construction) entirely. An entry holds one plan slot
// per component of every stratum.
//
// Keying and invalidation. An entry is keyed by the analyzed program
// (pointer identity — *analysis.Info is immutable once built) and the
// database's version stamp. Database.Add, SetRelation, and Apply
// restamp the database, so any mutation — in particular every
// Database.Apply — makes all previously cached plans unreachable:
// invalidation is by key, never in place. Version stamps
// are globally unique per content-changing operation, so equal keys
// imply plans compiled against identical cardinality snapshots; stale
// entries linger harmlessly until evicted by the LRU bound.
//
// Correctness. A cached plan can only differ from a fresh compile in
// the body orders the planner picked, and the planner picks only among
// eligibility-safe orders, which all compute the identical model.
// Cardinality snapshots of later strata depend on the oracle's ID
// assignment, so a hit under a different oracle may reuse a plan a
// fresh compile would not have chosen — the answers are byte-identical
// regardless; only the join order (and thus TuplesScanned) may differ.
// Traced runs use the cache too: provenance records body facts in the
// analysis order whatever plan ran (see recordProvenance).
//
// A PlanCache is safe for concurrent use. Cached plans are immutable
// masters that are never evaluated: a miss publishes clones of the plans
// it ran (so no master holds cursor state pointing into a finished
// run's relations), and every hit hands the engine fresh clones
// (per-clause scratch is single-threaded by design), so any number of
// concurrent evaluations may share one cache.
type PlanCache struct {
	mu    sync.Mutex
	cap   int
	items map[planKey]*list.Element
	order *list.List // front = most recently used

	hits   atomic.Uint64
	misses atomic.Uint64
}

// planKey identifies one (program, database snapshot) point.
type planKey struct {
	info      *analysis.Info
	dbVersion uint64
}

type planEntry struct {
	key   planKey
	plans [][]*componentPlan // per stratum, per component
}

// DefaultPlanCacheEntries bounds a default-constructed PlanCache. Eight
// entries cover the common server shape — a handful of programs over
// one live database version — while keeping worst-case retained memory
// at eight compiled programs.
const DefaultPlanCacheEntries = 8

// NewPlanCache returns a cache holding at most capacity entries
// (capacity <= 0 selects DefaultPlanCacheEntries), evicting the least
// recently used.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheEntries
	}
	return &PlanCache{
		cap:   capacity,
		items: map[planKey]*list.Element{},
		order: list.New(),
	}
}

// Stats returns the cumulative hit and miss counts.
func (p *PlanCache) Stats() (hits, misses uint64) {
	return p.hits.Load(), p.misses.Load()
}

// Len reports the number of cached plans.
func (p *PlanCache) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.order.Len()
}

// Purge drops every cached plan (counters are retained).
func (p *PlanCache) Purge() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.items = map[planKey]*list.Element{}
	p.order.Init()
}

// get returns the cached master plans for k, counting the lookup.
// Callers must clone before evaluating.
func (p *PlanCache) get(k planKey) ([][]*componentPlan, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.items[k]
	if !ok {
		p.misses.Add(1)
		return nil, false
	}
	p.hits.Add(1)
	p.order.MoveToFront(el)
	return el.Value.(*planEntry).plans, true
}

// put publishes plans as the masters for k. The caller hands over plans
// no evaluation uses: from here on they are only ever cloned.
func (p *PlanCache) put(k planKey, plans [][]*componentPlan) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.items[k]; ok {
		el.Value.(*planEntry).plans = plans
		p.order.MoveToFront(el)
		return
	}
	p.items[k] = p.order.PushFront(&planEntry{key: k, plans: plans})
	for p.order.Len() > p.cap {
		last := p.order.Back()
		p.order.Remove(last)
		delete(p.items, last.Value.(*planEntry).key)
	}
}

// clonePlans deep-copies a per-stratum, per-component plan table.
func clonePlans(plans [][]*componentPlan) [][]*componentPlan {
	out := make([][]*componentPlan, len(plans))
	for si, comps := range plans {
		out[si] = make([]*componentPlan, len(comps))
		for ci, sp := range comps {
			out[si][ci] = sp.clone()
		}
	}
	return out
}

// clone deep-copies the plan's clauses so the caller owns fresh scratch
// buffers; the static unit schedule, seed count and cardinality snapshot
// are shared (they are never mutated after compilation).
func (sp *componentPlan) clone() *componentPlan {
	c := &componentPlan{nseed: sp.nseed, units: sp.units, card: sp.card}
	c.all = make([]*compiledClause, len(sp.all))
	for i, cc := range sp.all {
		c.all[i] = cc.clone()
	}
	return c
}
