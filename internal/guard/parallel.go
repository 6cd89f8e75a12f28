package guard

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Parallel is the concurrency-safe face of a Guard for one parallel
// fixpoint phase. The coordinator Forks it before spawning workers and
// Joins it after they exit; in between, workers draw derivation grants
// from a shared atomic ledger (Reserve, and Leave with what they did
// not use), poll the clock and context through the lock-free
// Checkpoint, and publish the phase's first error through Fail, which
// doubles as the cooperative stop signal for their siblings.
//
// The derivation ledger counts *reservations*: a worker reserves up to
// CheckInterval derivations, runs them, and refunds what it did not
// use when it leaves. Joins therefore settle an exact total. The budget
// is exact too, not just a ceiling: a worker that finds it fully
// reserved waits while a sibling that has entered (Enter) and not left
// (Leave) is still running, since that sibling may leave unused grant
// behind; only when every such worker is waiting is the budget spent,
// with every reserved derivation executed.
type Parallel struct {
	g          *Guard
	max        int64 // derivation budget (0 = unlimited)
	panicAfter int64 // injected-panic threshold (0 = off)

	derivations atomic.Int64
	stopped     atomic.Bool
	mu          sync.Mutex
	err         error
	// Under mu: active counts workers between Enter and Leave, waiting
	// those blocked in Reserve on a fully reserved budget; wake signals
	// a refund, a new waiter, a departure or a stop.
	active, waiting int
	wake            sync.Cond
}

// Fork snapshots the guard's exact derivation total into a Parallel
// ledger. The guard must be settled (no outstanding amortized batch)
// and must not be consulted again until Join.
func (g *Guard) Fork() *Parallel {
	p := &Parallel{
		g:          g,
		max:        int64(g.limits.MaxDerivations),
		panicAfter: int64(g.fault.PanicAfter),
	}
	p.derivations.Store(int64(g.derivations))
	p.wake.L = &p.mu
	return p
}

// Enter registers a worker with the ledger; call it before the worker
// starts, and Leave when it exits.
func (p *Parallel) Enter() {
	p.mu.Lock()
	p.active++
	p.mu.Unlock()
}

// Leave refunds a departing worker's unused reserved derivations and
// deregisters it, waking siblings that wait for budget.
func (p *Parallel) Leave(unused int) {
	p.mu.Lock()
	p.derivations.Add(int64(-unused))
	p.active--
	p.wake.Broadcast()
	p.mu.Unlock()
}

// Reserve grants up to want derivations from the shared budget. It
// returns the granted count (≥1) or the typed budget error when the
// ledger is exhausted. A PanicAfter fault fires here, in the worker's
// goroutine, exactly as the sequential grant path would; the worker's
// recover converts it into a pool failure.
func (p *Parallel) Reserve(want int, clause string) (int, error) {
	for {
		cur := p.derivations.Load()
		if p.panicAfter > 0 && cur >= p.panicAfter {
			panicAfterFault(cur)
		}
		n := int64(want)
		if p.max > 0 {
			if r := p.max - cur; r < n {
				n = r
			}
			if n <= 0 {
				if p.awaitRefund() {
					continue
				}
				return 0, Errorf(ResourceExhausted, p.g.op,
					"derivation budget %d exceeded after %d derivations (clause %s)",
					p.max, p.derivations.Load(), clause)
			}
		}
		if p.panicAfter > 0 {
			if r := p.panicAfter - cur; r < n {
				n = r
			}
		}
		if p.derivations.CompareAndSwap(cur, cur+n) {
			return int(n), nil
		}
	}
}

// awaitRefund blocks a worker that found the budget fully reserved
// until a sibling's refund frees some of it (true), or until no
// registered sibling is left running — each is waiting too, or gone —
// or the phase stops (false: the budget is spent).
func (p *Parallel) awaitRefund() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.waiting++
	p.wake.Broadcast() // a sibling may have been waiting for this one
	for p.derivations.Load() >= p.max && p.waiting < p.active && !p.stopped.Load() {
		p.wake.Wait()
	}
	p.waiting--
	return p.derivations.Load() < p.max && !p.stopped.Load()
}

func panicAfterFault(n int64) {
	panic(fmt.Sprintf("guard: injected fault after %d derivations", n))
}

// Checkpoint is the context + clock check, safe for concurrent use.
func (p *Parallel) Checkpoint() error { return p.g.checkNow() }

// Fail records the phase's first error and raises the stop signal; it
// is safe to call from any worker. Nil errors are ignored.
func (p *Parallel) Fail(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.stopped.Store(true)
	p.wake.Broadcast()
	p.mu.Unlock()
}

// Stopped reports whether a sibling has failed; workers poll it at
// grant boundaries and between tasks for cooperative cancellation.
func (p *Parallel) Stopped() bool { return p.stopped.Load() }

// Err returns the phase's first error, if any.
func (p *Parallel) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Join settles the ledger back into the guard. Call only after every
// worker has exited (and refunded); the guard resumes sequential
// accounting from the exact total.
func (p *Parallel) Join() {
	p.g.derivations = int(p.derivations.Load())
}
