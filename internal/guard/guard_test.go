package guard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"idlog/internal/fault"
)

// armed returns a registry with f armed on point.
func armed(point string, f fault.Fault) *fault.Registry {
	r := fault.New()
	r.Arm(point, f)
	return r
}

func TestInactiveGuardNeverTrips(t *testing.T) {
	g := New(nil, Limits{})
	g.SetFaults(nil)
	if g.Active() {
		t.Fatalf("background guard with no limits or faults reported active")
	}
	for i := 0; i < 3; i++ {
		n, err := g.DerivationGrant(CheckInterval, "c")
		if err != nil || n != CheckInterval {
			t.Fatalf("grant %d = %d, %v", i, n, err)
		}
	}
	if err := g.TryTuples(1 << 20); err != nil {
		t.Fatalf("tuples: %v", err)
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
}

func TestDerivationBudgetExact(t *testing.T) {
	g := New(nil, Limits{MaxDerivations: 5})
	n, err := g.DerivationGrant(0, "c")
	if err != nil || n != 5 {
		t.Fatalf("grant = %d, %v; want the whole budget of 5", n, err)
	}
	_, err = g.DerivationGrant(n, "tc(X, Y) :- e(X, Y).")
	var ge *Error
	if !errors.As(err, &ge) || ge.Code != ResourceExhausted {
		t.Fatalf("want ResourceExhausted, got %v", err)
	}
	if !strings.Contains(err.Error(), "tc(X, Y)") {
		t.Fatalf("error lost the clause context: %v", err)
	}
	if d, _ := g.Usage(); d != 5 {
		t.Fatalf("derivations counted = %d, want exactly 5", d)
	}
}

func TestTupleBudgetExact(t *testing.T) {
	g := New(nil, Limits{MaxTuples: 3})
	for i := 0; i < 3; i++ {
		if err := g.TryTuples(1); err != nil {
			t.Fatalf("tuple %d tripped early: %v", i, err)
		}
	}
	if !g.AtTupleLimit() {
		t.Fatalf("AtTupleLimit false at the limit")
	}
	err := g.TryTuples(1)
	var ge *Error
	if !errors.As(err, &ge) || ge.Code != ResourceExhausted {
		t.Fatalf("want ResourceExhausted, got %v", err)
	}
	if _, n := g.Usage(); n != 3 {
		t.Fatalf("failed reservation was counted: tuples = %d", n)
	}
}

func TestBatchTupleReservation(t *testing.T) {
	g := New(nil, Limits{MaxTuples: 10})
	if err := g.TryTuples(7); err != nil {
		t.Fatal(err)
	}
	if err := g.TryTuples(4); err == nil {
		t.Fatalf("over-budget batch accepted")
	}
	if err := g.TryTuples(3); err != nil {
		t.Fatalf("exact-fit batch rejected: %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Limits{})
	if !g.Active() {
		t.Fatalf("cancelable guard reported inactive")
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatalf("premature trip: %v", err)
	}
	cancel()
	err := g.Checkpoint()
	var ge *Error
	if !errors.As(err, &ge) || ge.Code != Canceled {
		t.Fatalf("want Canceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false")
	}
}

func TestContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := New(ctx, Limits{}).Checkpoint()
	var ge *Error
	if !errors.As(err, &ge) || ge.Code != DeadlineExceeded {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(err, context.DeadlineExceeded) = false")
	}
}

func TestWallClockTimeout(t *testing.T) {
	g := New(nil, Limits{Timeout: time.Nanosecond})
	time.Sleep(time.Millisecond)
	err := g.Checkpoint()
	var ge *Error
	if !errors.As(err, &ge) || ge.Code != DeadlineExceeded {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wall-clock timeout should wrap context.DeadlineExceeded")
	}
}

func TestDerivationBatchedCheckpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Limits{})
	n, err := g.DerivationGrant(0, "c")
	if err != nil || n != CheckInterval {
		t.Fatalf("grant = %d, %v", n, err)
	}
	// A cancellation during the grant surfaces when it is spent: within
	// one CheckInterval of derivations.
	cancel()
	if _, err := g.DerivationGrant(n, "c"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation not observed at the batch boundary: %v", err)
	}
}

func TestCancelAtStratumFault(t *testing.T) {
	g := New(nil, Limits{})
	g.SetFaults(armed(fault.CoreStratum, fault.Fault{After: 2, Count: 1}))
	for i := 0; i < 2; i++ {
		if err := g.StartStratum(i); err != nil {
			t.Fatalf("stratum %d tripped early: %v", i, err)
		}
	}
	err := g.StartStratum(2)
	var ge *Error
	if !errors.As(err, &ge) || ge.Code != Canceled {
		t.Fatalf("want Canceled at stratum 2, got %v", err)
	}
	if g.Stratum() != 2 {
		t.Fatalf("stratum context = %d", g.Stratum())
	}
}

func TestFailAfterFaultPanics(t *testing.T) {
	g := New(nil, Limits{})
	g.SetFaults(armed(fault.CoreDerive, fault.Fault{After: 3}))
	// With a registry set every derivation is granted singly, so the
	// fault fires once exactly three derivations have completed.
	used := 0
	for i := 0; i < 3; i++ {
		n, err := g.DerivationGrant(used, "c")
		if err != nil || n != 1 {
			t.Fatalf("grant %d = %d, %v; want 1", i, n, err)
		}
		used = n
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("core.derive fault did not panic")
		}
		if d, _ := g.Usage(); d != 3 {
			t.Fatalf("panicked after %d derivations, want exactly 3", d)
		}
	}()
	_, _ = g.DerivationGrant(used, "c")
}

func TestOracleFaultConsumedOnce(t *testing.T) {
	g := New(nil, Limits{})
	want := fmt.Errorf("boom")
	g.SetFaults(armed(fault.RelationOracle, fault.Fault{Count: 1, Err: want}))
	if got := g.Hit(fault.RelationOracle); !errors.Is(got, want) {
		t.Fatalf("first hit = %v, want %v", got, want)
	}
	if got := g.Hit(fault.RelationOracle); got != nil {
		t.Fatalf("oracle fault fired twice: %v", got)
	}
}

func TestErrorRendering(t *testing.T) {
	e := WrapErr(Canceled, "enumerate", context.Canceled, "evaluation canceled")
	for _, want := range []string{"idlog:", "enumerate", "canceled"} {
		if !strings.Contains(e.Error(), want) {
			t.Fatalf("error %q missing %q", e.Error(), want)
		}
	}
	if Code(99).String() == "" {
		t.Fatalf("unknown code renders empty")
	}
}

// TestGrantSettleExact covers the amortized-batch bugfix: derivations
// run under a grant but never followed by another grant (a clause that
// finishes mid-batch) must be settled so the count stays exact.
func TestGrantSettleExact(t *testing.T) {
	g := New(nil, Limits{MaxDerivations: 1000})
	n, err := g.DerivationGrant(0, "c")
	if err != nil {
		t.Fatal(err)
	}
	if n != CheckInterval {
		t.Fatalf("grant = %d, want %d", n, CheckInterval)
	}
	// The clause runs 10 of the granted derivations, then completes.
	g.Settle(10)
	if d, _ := g.Usage(); d != 10 {
		t.Fatalf("Usage after settle = %d, want exactly 10", d)
	}
	// A fresh engine (Enumerate starts one per run) consults again: the
	// ledger must carry the settled 10, not restart from 0.
	n, err = g.DerivationGrant(0, "c")
	if err != nil || n != CheckInterval {
		t.Fatalf("second grant = %d, %v", n, err)
	}
	g.Settle(n)
	if d, _ := g.Usage(); d != 10+CheckInterval {
		t.Fatalf("Usage = %d, want %d", d, 10+CheckInterval)
	}
}

// TestGrantBudgetExactAcrossRuns drives grants the way an enumeration
// walk does — many short runs sharing one guard — and checks the budget
// error fires after exactly MaxDerivations, reporting the exact count.
func TestGrantBudgetExactAcrossRuns(t *testing.T) {
	const max = 600 // not a CheckInterval multiple: the tail grant is short
	g := New(nil, Limits{MaxDerivations: max})
	total := 0
	for run := 0; ; run++ {
		if run > 100 {
			t.Fatalf("budget never tripped")
		}
		// Each run uses at most 7 derivations per grant cycle, like a
		// clause with a small body.
		n, err := g.DerivationGrant(0, "tc(X, Y) :- e(X, Y).")
		if err != nil {
			if total != max {
				t.Fatalf("tripped after %d derivations, want exactly %d", total, max)
			}
			var ge *Error
			if !errors.As(err, &ge) || ge.Code != ResourceExhausted {
				t.Fatalf("want ResourceExhausted, got %v", err)
			}
			if !strings.Contains(err.Error(), "exactly 600 derivations") {
				t.Fatalf("error does not report the exact count: %v", err)
			}
			return
		}
		use := n
		if use > 7 {
			use = 7
		}
		total += use
		g.Settle(use)
	}
}
