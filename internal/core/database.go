// Package core is the IDLOG evaluation engine: it computes the perfect
// model of a stratified IDLOG program (Theorem 1 of the paper) for a
// fixed assignment of ID-functions, and enumerates the answers of
// non-deterministic queries by walking all assignments (§3.1).
//
// The engine consumes the plan produced by internal/analysis: strata are
// evaluated in order; within a stratum, clauses run semi-naively to a
// fixpoint; ID-relations needed by a stratum are materialized from the
// already-computed relations under a pluggable relation.Oracle, which is
// the single source of non-determinism.
package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"idlog/internal/relation"
	"idlog/internal/value"
)

// dbVersions hands out process-unique database version stamps. Every
// database construction or mutation entry point (NewDatabase, Add,
// AddAll, SetRelation, Thaw, Clone, DeepClone, Apply) takes a fresh
// stamp, so two databases with equal versions are guaranteed to hold
// the same EDB contents — the invariant the plan cache keys on. The
// converse is deliberately not promised: equal contents may carry
// different stamps (a missed cache hit, never a wrong one). Mutating a
// relation directly (db.Relation(p).Insert(...)) bypasses the stamp;
// the supported mutation path is Add/SetRelation/Apply.
var dbVersions atomic.Uint64

func nextDBVersion() uint64 { return dbVersions.Add(1) }

// Database holds the input (EDB) relations for a query: the paper's
// input database r = (u-domain; r1, ..., rn).
//
// A Database is not safe for concurrent mutation. Freeze turns it into
// an immutable snapshot that any number of evaluations may share:
// evaluation never writes to input relations (derived tuples go to
// per-run work relations), and freezing closes the one remaining
// mutable path, the lazy secondary indexes built on first probe.
type Database struct {
	rels    map[string]*relation.Relation
	frozen  bool
	version uint64
	// parent is the version of the database Apply derived this one
	// from, 0 when it was not made by Apply.
	parent uint64
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{rels: make(map[string]*relation.Relation), version: nextDBVersion()}
}

// Version returns the database's content stamp: fresh on construction,
// re-stamped by every mutation through the database API (Add, AddAll,
// SetRelation) and by every derivation of a new database (Thaw, Clone,
// DeepClone, Apply). Equal versions imply equal contents; the plan
// cache uses the stamp to invalidate on Database.Apply without content
// hashing. Freeze does not change the version — it changes sharing,
// not contents.
func (db *Database) Version() uint64 { return db.version }

// Parent returns the version of the database Apply was called on to
// produce db, or 0 when db did not come from Apply. Incremental
// maintenance checks it: a view may read its current snapshot as the
// pre-update state only when the new snapshot was derived from it.
func (db *Database) Parent() uint64 { return db.parent }

// Add inserts a tuple into the named relation, creating the relation
// with the tuple's arity on first use. Adding to a frozen database
// fails; Thaw a copy instead.
func (db *Database) Add(name string, t value.Tuple) error {
	if db.frozen {
		return fmt.Errorf("database: add %s to frozen database", name)
	}
	r, ok := db.rels[name]
	if !ok {
		r = relation.New(name, len(t))
		db.rels[name] = r
	}
	db.version = nextDBVersion()
	_, err := r.Insert(t)
	return err
}

// AddAll inserts a batch of tuples into the named relation.
func (db *Database) AddAll(name string, tuples ...value.Tuple) error {
	for _, t := range tuples {
		if err := db.Add(name, t); err != nil {
			return err
		}
	}
	return nil
}

// SetRelation installs (or replaces) a whole relation under name. It
// panics on a frozen database (a programming error: freeze last).
func (db *Database) SetRelation(name string, r *relation.Relation) {
	if db.frozen {
		panic(fmt.Sprintf("database: SetRelation(%s) on frozen database", name))
	}
	db.rels[name] = r
	db.version = nextDBVersion()
}

// Freeze makes the database and every relation in it immutable and
// safe for concurrent readers (see relation.Relation.Freeze). Call it
// once, before sharing the database between goroutines; a frozen
// database rejects Add and panics on SetRelation. It returns db for
// chaining.
func (db *Database) Freeze() *Database {
	if db.frozen {
		return db
	}
	for _, r := range db.rels {
		r.Freeze()
	}
	db.frozen = true
	return db
}

// Frozen reports whether Freeze has been called.
func (db *Database) Frozen() bool { return db.frozen }

// Thaw returns a mutable copy of the database whose mutations never
// reach db: each relation is a Clone, which for a frozen relation is a
// version sharing its tuples, primary table and indexes (see
// relation.Relation.Clone). Use it to derive the next snapshot from a
// frozen one: thaw, add facts, freeze, swap.
func (db *Database) Thaw() *Database {
	c := NewDatabase()
	for n, r := range db.rels {
		c.rels[n] = r.Clone()
	}
	return c
}

// Relation returns the named relation, or nil when absent.
func (db *Database) Relation(name string) *relation.Relation {
	return db.rels[name]
}

// Names returns the relation names present, sorted.
func (db *Database) Names() []string {
	out := make([]string, 0, len(db.rels))
	for n := range db.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Clone returns a database sharing relation contents (relations are not
// mutated by evaluation) but with an independent name table.
func (db *Database) Clone() *Database {
	c := NewDatabase()
	for n, r := range db.rels {
		c.rels[n] = r
	}
	return c
}

// Stats accumulates evaluation counters. The TuplesScanned and
// Derivations counters are the "intermediate redundant tuples" measure
// used by the optimization experiments (§4 of the paper).
type Stats struct {
	// Derivations counts successful body instantiations (head tuples
	// produced, including duplicates of already-known tuples).
	Derivations int
	// Inserted counts genuinely new tuples added to IDB relations.
	Inserted int
	// TuplesScanned counts tuples inspected while matching relational
	// body literals.
	TuplesScanned int
	// Iterations counts fixpoint rounds across all strata.
	Iterations int
	// IDRelations counts materialized ID-relations.
	IDRelations int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Derivations += other.Derivations
	s.Inserted += other.Inserted
	s.TuplesScanned += other.TuplesScanned
	s.Iterations += other.Iterations
	s.IDRelations += other.IDRelations
}

// String summarizes the counters.
func (s Stats) String() string {
	return fmt.Sprintf("derivations=%d inserted=%d scanned=%d iterations=%d idrels=%d",
		s.Derivations, s.Inserted, s.TuplesScanned, s.Iterations, s.IDRelations)
}

// Result is the computed perfect model: every program relation (EDB and
// IDB) plus the materialized ID-relations, and the run's statistics.
//
// A governed run that trips (cancellation, deadline, budget, injected
// fault) still returns its Result: Incomplete is set, CompletedStrata
// reports how many strata reached fixpoint, and Err carries the typed
// triggering error. Partial models are sound prefixes — every tuple
// they contain is derivable under the run's oracle (stratification
// means negation only ever consults fully computed strata).
type Result struct {
	rels   map[string]*relation.Relation
	idrels map[string]*relation.Relation
	prov   map[string]provEntry
	// Stats holds the evaluation counters for this run.
	Stats Stats
	// Incomplete marks a partial model from a tripped run.
	Incomplete bool
	// CompletedStrata counts the strata evaluated to fixpoint; tuples
	// from the stratum that tripped are present but that stratum is
	// not saturated.
	CompletedStrata int
	// Err is the typed error that stopped an incomplete run, nil for
	// complete ones. The same error is returned by Eval.
	Err error
}

// Relation returns the named relation from the model. IDB predicates
// with no derived tuples yield an empty relation rather than nil.
func (r *Result) Relation(name string) *relation.Relation {
	return r.rels[name]
}

// IDRelation returns a materialized ID-relation by its need key, e.g.
// "emp[1]" (0-based columns); mainly for tests and debugging.
func (r *Result) IDRelation(key string) *relation.Relation {
	return r.idrels[key]
}

// Relations returns the names of all relations in the model, sorted.
func (r *Result) Relations() []string {
	out := make([]string, 0, len(r.rels))
	for n := range r.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DeepClone returns a database whose relations are rebuilt copies
// sharing no internal state with db; use it to hand inputs to
// concurrent evaluations (relations build indexes lazily and are not
// safe for concurrent use).
func (db *Database) DeepClone() *Database {
	c := NewDatabase()
	for n, r := range db.rels {
		c.rels[n] = r.DeepClone()
	}
	return c
}
