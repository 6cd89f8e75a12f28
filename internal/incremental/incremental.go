// Package incremental maintains materialized IDLOG models under live
// EDB mutations. Insertions propagate with delta-driven semi-naive
// evaluation. Deletions use Backward/Forward (B/F; Motik, Nenov, Piro
// and Horrocks, AAAI 2015): a fact derived with a deleted fact against
// the old state is a candidate, and it is removed, and propagates as a
// deletion, only when a memoized proof search over the facts still
// standing finds no derivation for it; see core.Pass.Delete. Both run
// stratum by stratum and, within a stratum, component by component in
// dependency order, and both enter the batch engine's semi-naive loop
// with given deltas (core.Pass): an update differs from a batch run
// only in where its deltas come from and where derived heads go.
//
// Not every stratum can be maintained incrementally. The precise
// boundary, computed bottom-up per update: a stratum is AFFECTED when
// any predicate read by its clause bodies is possibly changed (EDB
// predicates touched by the update, plus IDB predicates of already
// processed affected strata). An affected stratum falls back to full
// recomputation when it reads a possibly-changed predicate through a
// non-monotonic literal — an ID-literal whose base predicate changed,
// or a negated literal over a changed predicate. Choice constructs are
// translated to ID-literals before analysis, so they inherit the
// ID-literal rule. From the first such stratum F upward, everything is
// recomputed by the ordinary engine; ID-relations of strata below F are
// never re-materialized, and re-materialization above F uses the same
// oracle, whose assignment is keyed on group content — so untouched
// derivations keep their tuple-IDs and previously returned answers
// remain valid within a session.
package incremental

import (
	"fmt"
	"maps"

	"idlog/internal/analysis"
	"idlog/internal/core"
	"idlog/internal/guard"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// UpdateStats summarizes one Apply.
type UpdateStats struct {
	// Inserted / Deleted count net tuple changes across EDB and IDB
	// relations (what a from-scratch diff would report).
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	// Overdeleted counts the deletion candidates checked for a
	// surviving derivation, Rederived the candidates proved to survive
	// (and so never removed).
	Overdeleted int `json:"overdeleted"`
	Rederived   int `json:"rederived"`
	// FallbackFrom is the first recomputed stratum, -1 for a fully
	// incremental update; StrataRecomputed counts recomputed strata.
	FallbackFrom     int `json:"fallback_from"`
	StrataRecomputed int `json:"strata_recomputed"`
}

func (u *UpdateStats) add(o UpdateStats) {
	u.Inserted += o.Inserted
	u.Deleted += o.Deleted
	u.Overdeleted += o.Overdeleted
	u.Rederived += o.Rederived
	u.StrataRecomputed += o.StrataRecomputed
}

// View is a materialized model of one analyzed program over an EDB
// snapshot, maintained under Apply. A View is not safe for concurrent
// use; callers serialize Apply and reads (idlogd wraps each view in an
// RWMutex).
type View struct {
	info *analysis.Info
	opts core.Options
	db   *core.Database

	rels   map[string]*relation.Relation
	idrels map[string]*relation.Relation
	plans  []*core.CompiledStratum

	// bodyPreds / negPreds / idBase cache, per stratum, the predicates
	// its clause bodies read — all of them, the negated ones, and the
	// base predicates of ID-literals — for the affected/fallback
	// decision.
	bodyPreds []map[string]bool
	negPreds  []map[string]bool
	idBase    []map[string]bool

	stats core.Stats
	last  UpdateStats
	total UpdateStats
	stale bool
}

// NewView materializes the model of info over db (which the view keeps
// as its EDB snapshot) and returns the maintained view. opts applies to
// the initial evaluation and to every fallback recomputation; its
// Oracle pins the ID assignment.
func NewView(info *analysis.Info, db *core.Database, opts core.Options) (*View, error) {
	v := &View{info: info, opts: opts, db: db, last: UpdateStats{FallbackFrom: -1}}
	v.indexBodies()
	if err := v.rebuild(db); err != nil {
		return nil, err
	}
	// The construction guard is one-shot: its budgets and deadline are
	// (partially) consumed by the initial evaluation. Later rebuilds and
	// fallbacks run under the guard passed to Apply, or ungoverned.
	v.opts.Guard = nil
	return v, nil
}

func (v *View) indexBodies() {
	n := len(v.info.Strata)
	v.plans = make([]*core.CompiledStratum, n)
	v.bodyPreds = make([]map[string]bool, n)
	v.negPreds = make([]map[string]bool, n)
	v.idBase = make([]map[string]bool, n)
	for i, s := range v.info.Strata {
		body, neg, id := map[string]bool{}, map[string]bool{}, map[string]bool{}
		for _, oc := range s.Clauses {
			for _, l := range oc.Clause.Body {
				body[l.Atom.Pred] = true
				if l.Neg {
					neg[l.Atom.Pred] = true
				}
				if l.Atom.IsID {
					id[l.Atom.Pred] = true
				}
			}
		}
		v.bodyPreds[i], v.negPreds[i], v.idBase[i] = body, neg, id
	}
}

// rebuild recomputes the whole model from scratch against db.
func (v *View) rebuild(db *core.Database) error {
	res, err := core.Eval(v.info, db, v.opts)
	if err != nil {
		return err
	}
	v.rels = map[string]*relation.Relation{}
	for _, name := range res.Relations() {
		v.rels[name] = res.Relation(name)
	}
	v.idrels = map[string]*relation.Relation{}
	for _, s := range v.info.Strata {
		for _, need := range s.IDNeeds {
			if r := res.IDRelation(need.Key()); r != nil {
				v.idrels[need.Key()] = r
			}
		}
	}
	v.stats.Add(res.Stats)
	v.db = db
	v.stale = false
	return nil
}

// Rebuild discards the materialized state and recomputes it over db,
// clearing staleness. Used after a failed Apply.
func (v *View) Rebuild(db *core.Database) error { return v.rebuild(db) }

// Stale reports whether a failed Apply left the view inconsistent.
func (v *View) Stale() bool { return v.stale }

// Database returns the EDB snapshot the view currently reflects.
func (v *View) Database() *core.Database { return v.db }

// Relation returns the materialized relation for a program predicate,
// or nil when the program does not define or read it.
func (v *View) Relation(name string) *relation.Relation { return v.rels[name] }

// LastUpdate returns the statistics of the most recent Apply.
func (v *View) LastUpdate() UpdateStats { return v.last }

// TotalUpdates returns cumulative Apply statistics.
func (v *View) TotalUpdates() UpdateStats { return v.total }

// EvalStats returns cumulative engine counters (initial evaluation,
// incremental passes, fallback recomputations).
func (v *View) EvalStats() core.Stats { return v.stats }

func (v *View) plan(si int) (*core.CompiledStratum, error) {
	if v.plans[si] == nil {
		// Plans compile lazily, so the materialized relations are a live
		// cardinality snapshot for the join planner.
		cs, err := core.CompileStratum(v.info, si, v.rels, v.idrels)
		if err != nil {
			return nil, err
		}
		v.plans[si] = cs
	}
	return v.plans[si], nil
}

// Apply advances the view from its current EDB snapshot to db, whose
// effective difference is delta. db must be what Database.Apply returned
// on the view's current snapshot (its Parent is that snapshot's
// Version): deletion reads the current snapshot as the pre-update state.
// Any other db is refused with an error that leaves the view as it was,
// not stale. g, when non-nil, governs the maintenance work (budgets,
// deadlines, cancellation). On any other error the view is marked stale
// and must be Rebuilt before further use.
func (v *View) Apply(db *core.Database, delta *core.Delta, g *guard.Guard) (UpdateStats, error) {
	if v.stale {
		return UpdateStats{}, fmt.Errorf("incremental: view is stale; rebuild first")
	}
	if db.Parent() != v.db.Version() {
		return UpdateStats{}, fmt.Errorf("incremental: snapshot was applied to version %d, view reflects version %d", db.Parent(), v.db.Version())
	}
	up := UpdateStats{FallbackFrom: -1}
	for _, p := range delta.Preds() {
		if v.info.IDB[p] {
			return UpdateStats{}, fmt.Errorf("incremental: cannot mutate derived relation %s", p)
		}
	}

	// Global effective-change sets, per predicate, growing as strata are
	// processed. EDB changes seed them; mutations to predicates the
	// program never reads are ignored (the snapshot swap below still
	// picks them up if the program's EDB set includes them).
	ins := map[string]*relation.Relation{}
	dels := map[string]*relation.Relation{}
	for p, ts := range delta.Inserts {
		if !v.info.EDB[p] {
			continue
		}
		ins[p] = relation.FromTuples(p, v.info.Arity[p], ts...)
		up.Inserted += len(ts)
	}
	for p, ts := range delta.Deletes {
		if !v.info.EDB[p] {
			continue
		}
		dels[p] = relation.FromTuples(p, v.info.Arity[p], ts...)
		up.Deleted += len(ts)
	}

	// Swap the EDB to the new snapshot, keeping the previous snapshot's
	// relations: they are exactly the pre-update EDB, already indexed.
	// IDB relations are mutated in place below.
	prev := map[string]*relation.Relation{}
	for p := range v.info.EDB {
		prev[p] = v.rels[p]
		r := db.Relation(p)
		if r == nil {
			r = relation.New(p, v.info.Arity[p])
		}
		v.rels[p] = r
	}
	v.db = db

	if len(ins) == 0 && len(dels) == 0 {
		v.last = up
		v.total.add(up)
		return up, nil
	}

	// oldOf resolves a predicate to its pre-update relation. For an EDB
	// predicate that is the previous snapshot's relation. An IDB
	// predicate changed by a lower stratum gets an old view,
	// materialized at most once per Apply: current content minus this
	// update's insertions plus its deletions. Unchanged predicates
	// resolve to their current relation. Lower strata are final when a
	// stratum reads them, so a materialized old view stays valid for
	// the rest of the Apply.
	oldViews := map[string]*relation.Relation{}
	oldOf := func(p string) *relation.Relation {
		if r, ok := prev[p]; ok {
			return r
		}
		if r, ok := oldViews[p]; ok {
			return r
		}
		cur := v.rels[p]
		i, d := ins[p], dels[p]
		if (i == nil || i.Len() == 0) && (d == nil || d.Len() == 0) {
			return cur
		}
		old := cur.Clone()
		if i != nil {
			for k := range i.Len() {
				t := i.At(k)
				if _, err := old.Remove(t); err != nil {
					return cur // unreachable: old is an unfrozen clone
				}
			}
		}
		if d != nil {
			for k := range d.Len() {
				t := d.At(k)
				old.MustInsert(t)
			}
		}
		oldViews[p] = old
		return old
	}

	changed := func(preds map[string]bool) bool {
		for p := range preds {
			if i := ins[p]; i != nil && i.Len() > 0 {
				return true
			}
			if d := dels[p]; d != nil && d.Len() > 0 {
				return true
			}
		}
		return false
	}

	opts := v.opts
	opts.Guard = g
	pass := core.NewPass(v.info, v.rels, v.idrels, opts)
	defer func() { v.stats.Add(pass.Stats()) }()
	fail := func(err error) (UpdateStats, error) {
		v.stale = true
		return UpdateStats{}, err
	}
	fallback := -1
	for si := range v.info.Strata {
		if !changed(v.bodyPreds[si]) {
			continue
		}
		// Fallback test: the stratum reads a changed predicate through a
		// non-monotonic literal.
		if changed(v.idBase[si]) || changed(v.negPreds[si]) {
			fallback = si
			break
		}

		if err := pass.Enter(si); err != nil {
			return fail(err)
		}
		plan, err := v.plan(si)
		if err != nil {
			return fail(err)
		}
		// Deletion: B/F checks each candidate for a surviving derivation
		// and returns the facts it disproved, which alone are removed.
		// From here on the stratum's relations only grow, so what it adds
		// is the tail of each past its length now.
		disproved, cands, err := pass.Delete(plan, dels, oldOf)
		if err != nil {
			return fail(err)
		}
		up.Overdeleted += cands
		base := map[string]int{}
		for _, p := range plan.Preds {
			d := disproved[p]
			for k := range d.Len() {
				if _, err := v.rels[p].Remove(d.At(k)); err != nil {
					return fail(err)
				}
			}
			cands -= d.Len()
			base[p] = v.rels[p].Len()
		}
		up.Rederived += cands
		// Insertion propagation, component by component. Deltas:
		// everything inserted below, plus the earlier components'
		// additions.
		for ci := range plan.Components() {
			deltas := maps.Clone(ins)
			for _, p := range plan.Preds {
				if t := suffix(v.rels[p], base[p], nil); t != nil {
					deltas[p] = t
				}
			}
			if err := pass.Derive(plan, ci, deltas); err != nil {
				return fail(err)
			}
		}
		// Fold this stratum's net changes into the global sets: net
		// insertions are the added tuples that were not disproved, net
		// deletions the disproved tuples that did not come back.
		for _, p := range plan.Preds {
			cur, d := v.rels[p], disproved[p]
			if t := suffix(cur, base[p], func(t value.Tuple) bool { return !d.Contains(t) }); t != nil {
				ins[p] = t
				up.Inserted += t.Len()
			}
			if t := suffix(d, 0, func(t value.Tuple) bool { return !cur.Contains(t) }); t != nil {
				dels[p] = t
				up.Deleted += t.Len()
			}
		}
	}

	if fallback >= 0 {
		// Count what the recomputed strata currently hold, recompute,
		// and diff sizes for the stats (tuple-exact diffs would cost as
		// much as the recompute).
		before := 0
		for si := fallback; si < len(v.info.Strata); si++ {
			for _, p := range v.info.Strata[si].Preds {
				if r := v.rels[p]; r != nil {
					before += r.Len()
				}
			}
		}
		if err := pass.Recompute(fallback); err != nil {
			return fail(err)
		}
		after := 0
		for si := fallback; si < len(v.info.Strata); si++ {
			for _, p := range v.info.Strata[si].Preds {
				if r := v.rels[p]; r != nil {
					after += r.Len()
				}
			}
		}
		if after > before {
			up.Inserted += after - before
		} else {
			up.Deleted += before - after
		}
		up.FallbackFrom = fallback
		up.StrataRecomputed = len(v.info.Strata) - fallback
	}

	v.last = up
	v.total.add(up)
	return up, nil
}

// suffix returns, as a delta relation, the tuples of r at positions
// from on that keep admits (all of them when keep is nil), or nil when
// there are none.
func suffix(r *relation.Relation, from int, keep func(value.Tuple) bool) *relation.Relation {
	var d *relation.Relation
	r.Scan(from, r.Len(), func(_ int, t value.Tuple) bool {
		if keep == nil || keep(t) {
			if d == nil {
				d = relation.NewDelta(r.Name(), r.Arity(), 0)
			}
			d.Append(t)
		}
		return true
	})
	return d
}

// ApplyFacts is the convenience path used by idlogd and the REPL: it
// runs Database.Apply on the view's current snapshot and advances the
// view with the effective delta, returning the new snapshot.
func (v *View) ApplyFacts(inserts, deletes []core.Fact, g *guard.Guard) (*core.Database, UpdateStats, error) {
	db, delta, err := v.db.Apply(inserts, deletes)
	if err != nil {
		return nil, UpdateStats{}, err
	}
	up, err := v.Apply(db, delta, g)
	if err != nil {
		return nil, UpdateStats{}, err
	}
	return db, up, nil
}

// Equal reports whether the view's materialized relations are
// tuple-for-tuple identical to res (a from-scratch evaluation); the
// first difference is described in detail. Used by the equivalence
// tests.
func (v *View) Equal(res *core.Result) (bool, string) {
	names := res.Relations()
	seen := map[string]bool{}
	for _, name := range names {
		seen[name] = true
		want := res.Relation(name)
		got := v.rels[name]
		if got == nil {
			return false, fmt.Sprintf("relation %s missing from view", name)
		}
		if !got.Equal(want) {
			return false, fmt.Sprintf("relation %s differs: view=%s recompute=%s", name, got, want)
		}
	}
	for name := range v.rels {
		if !seen[name] {
			return false, fmt.Sprintf("view has extra relation %s", name)
		}
	}
	return true, ""
}
