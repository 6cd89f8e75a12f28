package idlog

import (
	"context"
	"sort"
	"strings"

	"idlog/internal/core"
	"idlog/internal/guard"
	"idlog/internal/incremental"
	"idlog/internal/parser"
)

// Fact is one ground tuple of a named relation — the unit of live EDB
// mutation. See Database.Apply and LiveView.
type Fact = core.Fact

// UpdateStats summarizes one incremental update: net tuples inserted
// and deleted across the model, DRed overdeletion/rederivation counts,
// and whether (and where) the update fell back to recomputation.
type UpdateStats = incremental.UpdateStats

// Delta is the effective change of one Database.Apply batch.
type Delta = core.Delta

// ParseFacts parses ground facts in program syntax ("emp(joe, toys).
// dept(toys).") into a Fact list. Rules and non-ground facts are
// rejected with a typed error.
func ParseFacts(src string) ([]Fact, error) {
	// Every fact ends in a '.', so this bounds the count from above.
	out := make([]Fact, 0, strings.Count(src, "."))
	err := parser.FactsString(src, func(pred string, t Tuple) error {
		out = append(out, Fact{Pred: pred, Tuple: t})
		return nil
	})
	if err != nil {
		return nil, guard.WrapErr(guard.ParseError, "facts", err, "")
	}
	return out, nil
}

// LiveView is a materialized model of a program kept consistent under
// EDB mutations. Insertions propagate with delta-driven semi-naive
// evaluation and deletions with DRed; strata that read a changed
// predicate non-monotonically (through negation or an ID-literal) fall
// back to recomputation from that stratum up, under the same oracle —
// see internal/incremental for the precise boundary.
//
// A LiveView is not safe for concurrent use: callers serialize Apply
// against reads (idlogd wraps each view in an RWMutex).
type LiveView struct {
	prog *Program
	view *incremental.View
}

// NewLiveView evaluates the program over db and returns the maintained
// view. opts govern the initial evaluation and pin the oracle used by
// any later fallback recomputation.
func (p *Program) NewLiveView(db *Database, opts ...Option) (*LiveView, error) {
	cfg := buildConfig(context.Background(), opts)
	v, err := incremental.NewView(p.info, db, cfg.eval)
	if err != nil {
		return nil, err
	}
	return &LiveView{prog: p, view: v}, nil
}

// Apply mutates the view's EDB snapshot — deletes first, then inserts —
// and incrementally maintains the model, returning the new snapshot and
// the update statistics. opts bound the maintenance work (WithTimeout,
// WithMaxDerivations, WithMaxTuples); oracle options are ignored — the
// view's construction oracle stays pinned. On error the view is stale:
// reads still see the last consistent state's relations only after
// Rebuild.
func (lv *LiveView) Apply(inserts, deletes []Fact, opts ...Option) (*Database, UpdateStats, error) {
	cfg := buildConfig(context.Background(), opts)
	db, up, err := lv.view.ApplyFacts(inserts, deletes, cfg.eval.Guard)
	if err != nil {
		return nil, up, err
	}
	return db, up, nil
}

// Advance is the split form of Apply for callers that already ran
// Database.Apply themselves (idlogd applies one batch to a session and
// advances every view with the same effective delta): db is the new
// snapshot, delta the effective change from the view's current
// snapshot.
func (lv *LiveView) Advance(db *Database, delta *Delta, opts ...Option) (UpdateStats, error) {
	cfg := buildConfig(context.Background(), opts)
	return lv.view.Apply(db, delta, cfg.eval.Guard)
}

// Program returns the program the view materializes.
func (lv *LiveView) Program() *Program { return lv.prog }

// Database returns the EDB snapshot the view currently reflects.
func (lv *LiveView) Database() *Database { return lv.view.Database() }

// Relation returns the materialized relation for name, or nil when the
// program neither defines nor reads it.
func (lv *LiveView) Relation(name string) *Relation { return lv.view.Relation(name) }

// Stale reports whether a failed Apply left the view inconsistent;
// Rebuild clears it.
func (lv *LiveView) Stale() bool { return lv.view.Stale() }

// Rebuild recomputes the model from scratch over db (pass
// lv.Database() to rebuild in place), clearing staleness.
func (lv *LiveView) Rebuild(db *Database) error { return lv.view.Rebuild(db) }

// LastUpdate returns the statistics of the most recent Apply.
func (lv *LiveView) LastUpdate() UpdateStats { return lv.view.LastUpdate() }

// TotalUpdates returns cumulative Apply statistics.
func (lv *LiveView) TotalUpdates() UpdateStats { return lv.view.TotalUpdates() }

// EvalStats returns cumulative engine counters across the initial
// evaluation, incremental passes, and fallback recomputations.
func (lv *LiveView) EvalStats() Stats { return lv.view.EvalStats() }

// Relations lists the view's materialized predicates, sorted.
func (lv *LiveView) Relations() []string {
	var out []string
	for p := range lv.prog.info.EDB {
		if lv.view.Relation(p) != nil {
			out = append(out, p)
		}
	}
	for p := range lv.prog.info.IDB {
		if lv.view.Relation(p) != nil {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}
