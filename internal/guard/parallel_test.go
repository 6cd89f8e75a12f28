package guard

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

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

// TestParallelReserveExact hammers the shared ledger from many
// goroutines, each spending its grants one derivation at a time and
// leaving with what it holds once its own quota is done. The quotas
// add up to more than the budget, so the budget trips, and it trips
// exactly: a worker that finds the budget reserved waits for siblings
// that may leave unused grant behind, so the joined total equals both
// what was used and the budget.
func TestParallelReserveExact(t *testing.T) {
	const max = 10_000
	g := New(nil, Limits{MaxDerivations: max})
	p := g.Fork()
	var used atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		p.Enter()
		go func(w int) {
			defer wg.Done()
			slack := 0
			defer func() { p.Leave(slack) }()
			for quota := 500 + 700*w; quota > 0; quota-- {
				if slack == 0 {
					n, err := p.Reserve(CheckInterval, "c")
					if err != nil {
						return
					}
					slack = n
				}
				slack--
				used.Add(1)
			}
		}(w)
	}
	wg.Wait()
	p.Join()
	d, _ := g.Usage()
	if int64(d) != used.Load() {
		t.Fatalf("joined total %d != used %d", d, used.Load())
	}
	if d != max {
		t.Fatalf("budget tripped after %d derivations, want exactly %d", d, max)
	}
	if _, err := p.Reserve(1, "c"); err == nil {
		t.Fatalf("exhausted ledger granted more work")
	}
}

// TestParallelReserveWaitsForRefund walks the wait step by step: a
// worker that finds the budget reserved by a running sibling waits, is
// served from that sibling's refund when it leaves, and fails at once
// once no running sibling is left. Fail wakes a waiting worker.
func TestParallelReserveWaitsForRefund(t *testing.T) {
	g := New(nil, Limits{MaxDerivations: 100})
	p := g.Fork()
	p.Enter() // a
	p.Enter() // b
	if n, err := p.Reserve(60, "c"); err != nil || n != 60 {
		t.Fatalf("a's grant = %d, %v", n, err)
	}
	if n, err := p.Reserve(60, "c"); err != nil || n != 40 {
		t.Fatalf("b's grant = %d, %v; want the 40 left", n, err)
	}
	got := make(chan int)
	go func() { // b has spent its 40 and needs more
		n, err := p.Reserve(60, "c")
		if err != nil {
			n = -1
		}
		got <- n
	}()
	select {
	case n := <-got:
		t.Fatalf("b was answered (%d) while a still held unused grant", n)
	case <-time.After(20 * time.Millisecond):
	}
	p.Leave(50) // a used 10 of its 60
	if n := <-got; n != 50 {
		t.Fatalf("b's grant after a left = %d, want the 50 a refunded", n)
	}
	if _, err := p.Reserve(1, "c"); err == nil {
		t.Fatalf("b alone got budget beyond the limit")
	}
	p.Leave(0)
	p.Join()
	if d, _ := g.Usage(); d != 100 {
		t.Fatalf("Usage = %d, want 100", d)
	}

	p = g.Fork() // the budget is spent
	p.Enter()
	p.Enter()
	errc := make(chan error)
	go func() {
		_, err := p.Reserve(1, "c")
		errc <- err
	}()
	p.Fail(Errorf(Canceled, "eval", "stop"))
	if err := <-errc; err == nil {
		t.Fatalf("a stopped phase granted budget beyond the limit")
	}
}

// TestParallelFailStops checks first-error-wins and the stop signal.
func TestParallelFailStops(t *testing.T) {
	g := New(nil, Limits{})
	p := g.Fork()
	if p.Stopped() {
		t.Fatalf("fresh pool already stopped")
	}
	first := Errorf(ResourceExhausted, "eval", "first")
	p.Fail(first)
	p.Fail(Errorf(Internal, "eval", "second"))
	if !p.Stopped() {
		t.Fatalf("Fail did not raise the stop signal")
	}
	if p.Err() != first {
		t.Fatalf("Err = %v, want the first failure", p.Err())
	}
}

// TestParallelCheckpointConcurrent runs the lock-free checkpoint from
// many goroutines against a canceled context (run under -race).
func TestParallelCheckpointConcurrent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Limits{})
	p := g.Fork()
	cancel()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Checkpoint(); err == nil {
				p.Fail(Errorf(Internal, "eval", "checkpoint missed cancellation"))
			}
		}()
	}
	wg.Wait()
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
}

// TestParallelPanicAfter checks the injected fault fires in Reserve.
func TestParallelPanicAfter(t *testing.T) {
	g := New(nil, Limits{})
	g.Inject(FailAfter(10))
	p := g.Fork()
	n, err := p.Reserve(CheckInterval, "c")
	if err != nil || n != 10 {
		t.Fatalf("capped grant = %d, %v; want 10, nil", n, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("PanicAfter fault did not panic in Reserve")
		}
	}()
	_, _ = p.Reserve(1, "c")
}
