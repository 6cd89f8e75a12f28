// Package guard is the engine's resource-governance layer. One Guard
// accompanies each evaluation (or each enumeration walk, whose runs
// share it) and enforces, under one roof: context cancellation and
// deadlines, a wall-clock timeout, a derived-tuple budget (the memory
// proxy), and the derivation budget. The engine checks it cooperatively
// at stratum entries, fixpoint-round boundaries, and every derivation;
// the expensive clock/context checks run only once per CheckInterval
// derivations, so governance costs a counter increment on the hot path.
//
// The package also defines the typed error taxonomy (Error, Code) used
// at the public boundary. A guard given a fault registry (SetFaults)
// consults the engine's fault points there: fault.CoreDerive,
// fault.CoreStratum and, through Hit, fault.RelationOracle.
package guard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"idlog/internal/fault"
)

// CheckInterval is the number of derivations between full context and
// clock checkpoints. Budget counters are exact — they are checked on
// every derivation and tuple — only the clock/context polling is
// batched.
const CheckInterval = 256

// Limits bounds one evaluation; zero values mean unlimited.
type Limits struct {
	// Timeout is the wall-clock budget for the whole run (Enumerate:
	// the whole walk). It combines with any context deadline; the
	// earlier one wins.
	Timeout time.Duration
	// MaxTuples caps the number of newly materialized tuples (derived
	// IDB tuples plus ID-relation rows) — the engine's memory proxy.
	MaxTuples int
	// MaxDerivations caps body instantiations, the engine's work proxy.
	MaxDerivations int
}

// Guard carries the governance state of one evaluation. It is not safe
// for concurrent use; the engine is single-threaded by design.
type Guard struct {
	ctx         context.Context
	cancel      context.CancelFunc
	limits      Limits
	faults      *fault.Registry
	deadline    time.Time
	hasDeadline bool
	op          string

	derivations int
	tuples      int
	stratum     int
}

// New builds a guard for ctx (nil means context.Background()) under the
// given limits. The wall-clock deadline is fixed at creation time, so a
// guard shared by an enumeration walk budgets the whole walk.
func New(ctx context.Context, l Limits) *Guard {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &Guard{ctx: ctx, limits: l, op: "eval"}
	if l.Timeout > 0 {
		g.deadline = time.Now().Add(l.Timeout)
		g.hasDeadline = true
	}
	if d, ok := ctx.Deadline(); ok && (!g.hasDeadline || d.Before(g.deadline)) {
		g.deadline = d
		g.hasDeadline = true
	}
	return g
}

// SetOp labels subsequent errors with the public entry point being
// served ("eval", "enumerate", "query").
func (g *Guard) SetOp(op string) { g.op = op }

// Op returns the current entry-point label.
func (g *Guard) Op() string { return g.op }

// SetFaults makes the guard consult the engine's fault points in r. A
// nil registry arms nothing and costs nothing. A registry wraps the
// guard's context with a cancel, which makes the guard Active and lets
// a firing fault.CoreStratum cancel the run as a caller would.
func (g *Guard) SetFaults(r *fault.Registry) {
	if r == nil {
		return
	}
	g.faults = r
	g.ctx, g.cancel = context.WithCancel(g.ctx)
}

// Hit consults the named fault point: nil unless a registry is set and
// the point's schedule fires on this hit.
func (g *Guard) Hit(point string) error {
	if g.faults == nil {
		return nil
	}
	return g.faults.Hit(point)
}

// Active reports whether any governance check can fire: engines skip
// the per-derivation accounting entirely for inactive guards, keeping
// ungoverned runs at seed speed.
func (g *Guard) Active() bool {
	return g.hasDeadline || g.limits.MaxTuples > 0 || g.limits.MaxDerivations > 0 ||
		g.ctx.Done() != nil
}

// StartStratum notes entry into stratum i, cancels the run when
// fault.CoreStratum fires, and runs a full checkpoint.
func (g *Guard) StartStratum(i int) error {
	g.stratum = i
	if g.Hit(fault.CoreStratum) != nil {
		g.cancel()
	}
	return g.Checkpoint()
}

// Stratum reports the stratum currently under evaluation (for error
// context).
func (g *Guard) Stratum() int { return g.stratum }

// Checkpoint runs the full context + clock check. The engine calls it
// at stratum entries and fixpoint-round boundaries; DerivationGrant
// calls it at most every CheckInterval derivations.
func (g *Guard) Checkpoint() error {
	if err := g.ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return WrapErr(DeadlineExceeded, g.op, err, "context deadline exceeded")
		}
		return WrapErr(Canceled, g.op, err, "evaluation canceled")
	}
	if g.hasDeadline && time.Now().After(g.deadline) {
		return WrapErr(DeadlineExceeded, g.op, context.DeadlineExceeded,
			fmt.Sprintf("wall-clock budget %s exceeded", g.limits.Timeout))
	}
	return nil
}

// DerivationGrant accounts body instantiations for the engine's
// innermost loop: the engine reports the `used` derivations performed
// since the last grant, the guard settles them and returns how many
// further derivations may run before the next consultation — the
// distance to the derivation budget, capped at CheckInterval — or the
// budget error or checkpoint trip that is due. The budget is exact: the
// error fires on the instantiation after it is spent, so a tripped run
// shows exactly MaxDerivations derivations. clause is the source text
// of the clause being instantiated, for the error message. The engine
// only decrements a local counter per granted derivation; Usage may lag
// by up to one outstanding grant between consultations.
//
// With a fault registry set the grant is 1, so fault.CoreDerive is hit
// once per derivation and a schedule with After n panics once exactly
// n derivations have completed.
func (g *Guard) DerivationGrant(used int, clause string) (int, error) {
	g.derivations += used
	if err := g.Hit(fault.CoreDerive); err != nil {
		panic(fmt.Sprintf("guard: %v after %d derivations", err, g.derivations))
	}
	if g.limits.MaxDerivations > 0 && g.derivations >= g.limits.MaxDerivations {
		return 0, g.derivationExhausted(clause)
	}
	if err := g.Checkpoint(); err != nil {
		return 0, err
	}
	if g.faults != nil {
		return 1, nil
	}
	n := CheckInterval
	if g.limits.MaxDerivations > 0 {
		if r := g.limits.MaxDerivations - g.derivations; r < n {
			n = r
		}
	}
	return n, nil
}

// Settle accounts `used` derivations that ran under an outstanding
// DerivationGrant without issuing a new grant. The engine calls it when
// a clause finishes, so the guard is exact at every clause boundary:
// Usage reports a true total, budget errors report an exact count, and
// a guard shared across runs (Enumerate) starts from the exact total
// instead of drifting by up to one CheckInterval batch per clause.
func (g *Guard) Settle(used int) { g.derivations += used }

func (g *Guard) derivationExhausted(clause string) error {
	return Errorf(ResourceExhausted, g.op,
		"derivation budget %d exceeded after exactly %d derivations (clause %s)",
		g.limits.MaxDerivations, g.derivations, clause)
}

// TryTuples reserves n newly materialized tuples against the tuple
// budget, erroring — without reserving — when the reservation would
// exceed it. With per-tuple reservations the budget is exact: a tripped
// run holds exactly MaxTuples derived tuples. Called once per stored
// tuple, so the error path is outlined to keep TryTuples inlinable.
func (g *Guard) TryTuples(n int) error {
	held := g.tuples + n
	if m := g.limits.MaxTuples; m > 0 && held > m {
		return g.tuplesExhausted(n)
	}
	g.tuples = held
	return nil
}

func (g *Guard) tuplesExhausted(n int) error {
	return Errorf(ResourceExhausted, g.op,
		"tuple budget %d exceeded (%d held, %d requested)", g.limits.MaxTuples, g.tuples, n)
}

// AtTupleLimit reports whether the tuple budget is fully reserved; the
// engine uses it to reject the next genuinely-new tuple before storing
// it.
func (g *Guard) AtTupleLimit() bool {
	return g.limits.MaxTuples > 0 && g.tuples >= g.limits.MaxTuples
}

// Usage reports the budget counters (for tests and diagnostics).
func (g *Guard) Usage() (derivations, tuples int) { return g.derivations, g.tuples }
