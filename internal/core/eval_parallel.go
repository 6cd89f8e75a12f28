package core

import (
	"context"
	"errors"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"idlog/internal/guard"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// This file implements the fanned-out rounds of the semi-naive
// fixpoint (fixpoint, eval.go). Such a round is split into tasks — one
// per (clause, delta-position) unit, further sharded over the depth-0
// literal's enumeration range — and the tasks are evaluated by a
// bounded worker pool against the round-start state of the relations.
// Workers only READ shared state (the work relations, materialized
// ID-relations, and earlier strata); all insertion happens afterwards in
// a single-threaded merge that visits tasks in their deterministic
// planning order. The round is a strict read-phase / merge-phase
// alternation: the WaitGroup barrier between the phases is the
// happens-before edge that makes the lazily built relation indexes
// (atomic copy-on-write) safe to probe from many workers at once.
//
// Why a fanned-out round yields what a direct round would: both read
// the round-start state. A fanned-out round inserts only after its read
// phase; a direct round inserts as it goes, but its literals over the
// component read either the round's fixed delta or, through
// runner.frontier, only the positions the relation had when the round
// began. So both kinds of round make the same derivations, scan the same
// tuples and insert the same tuples in the same order: the merge visits
// tasks in planning order, each task's candidates arrive in enumeration
// order, and shard boundaries only cut that sequence. The answers, the
// insertion order and every Stats count are therefore independent of
// the worker count. (ID assignment would not depend on insertion order
// anyway: relation.Groups presents group members in canonical sorted
// order and oracles draw from the group's content.)
//
// Governance: a fanned-out round forks a guard.Parallel ledger
// (atomic reserve/refund grants) for its derivation budget, which stops
// exactly at the budget; the tuple budget stays exact because only the
// single-threaded merge stores tuples. The first failing worker raises the shared stop
// flag and its typed error wins; sibling workers drain cooperatively at
// the next grant or task boundary.

// errPoolStopped unwinds a worker when a sibling has already failed;
// the sibling's error is the one reported.
var errPoolStopped = errors.New("parallel pool stopped")

// minShard is the smallest depth-0 enumeration range worth splitting:
// below it, task dispatch overhead exceeds the join work.
const minShard = 16

// minParallelDelta gates the delta rounds of recursive components: a
// round whose total delta is smaller runs directly on the calling
// goroutine, so it pays no goroutine fan-out. Seed rounds and
// non-recursive components always fan out. At this size the fixed cost
// of a fan-out is under 0.5 % of the round's join work; DESIGN.md §6b
// records the measurement.
const minParallelDelta = 4096

// pTask is one unit of round work: clause ci with the delta relation
// substituted at position pos (-1 = seed pass), restricted to the
// [lo, hi) shard of the depth-0 enumeration range (hi = -1 means the
// whole range). A direct round runs its units whole.
type pTask struct {
	ci       int
	pos      int
	lo, hi   int
	deltaRel *relation.Relation
}

// pOut is one task's result: its candidate head tuples in enumeration
// order (deduplicated within the task and against the round-start
// relation), which are candidates [lo, hi) of its worker's buffer, and
// private counters.
type pOut struct {
	buf    *candidates
	lo, hi int
	vlo, w int // the first candidate's offset in buf.vals, the head arity
	stats  Stats
}

// at returns the task's candidate i (lo ≤ i < hi), a view into the
// worker's buffer.
func (o *pOut) at(i int) value.Tuple {
	v := o.vlo + (i-o.lo)*o.w
	return o.buf.vals[v : v+o.w : v+o.w]
}

// candidates is a worker's buffer of derived head tuples for one round:
// their values copied into one flat array beside their hashes, so a
// derivation allocates nothing of its own. It is emptied when a round
// starts and read by the merge after the round's barrier.
type candidates struct {
	vals   []value.Value
	hashes []uint64
}

// pWorker is one evaluation goroutine: private compiled-clause copies
// (the per-literal scratch buffers are single-threaded), a runner
// bound to them, and a local slice of the shared derivation grant.
type pWorker struct {
	e       *engine
	pb      *guard.Parallel   // the current round's ledger
	clauses []*compiledClause // private copies, indexed like the shared slice
	rn      runner
	slack   int    // derivations still allowed under the current grant
	cur     string // source text of the clause under evaluation (panic context)

	buf candidates // this round's candidates, of every task the worker ran

	// Per-task state, rebound by runTask.
	out  *pOut
	full *relation.Relation // round-start head relation (read-only here)
	// seen maps a candidate's hash to the index in buf of the first
	// candidate of the task with that hash (within-task dedup).
	seen map[uint64]int
}

// derive is the worker's leaf hook: account the derivation against the
// shared ledger, then collect genuinely new candidate tuples.
func (w *pWorker) derive(cc *compiledClause, _ []value.Value, head value.Tuple) error {
	if w.e.governed {
		if w.slack == 0 {
			if err := w.grant(cc); err != nil {
				return err
			}
		}
		w.slack--
	} else if w.out.stats.Derivations&1023 == 1023 && w.pb.Stopped() {
		// Ungoverned runs carry no budgets, but a sibling's internal
		// failure must still stop the pool promptly.
		return errPoolStopped
	}
	w.out.stats.Derivations++
	h := head.Hash()
	if w.full.ContainsHash(head, h) {
		return nil
	}
	if i, dup := w.seen[h]; !dup {
		w.seen[h] = w.out.hi
	} else if w.out.at(i).Equal(head) {
		return nil
	}
	// A hash shared with a different candidate (a 64-bit collision)
	// keeps both; the merge's insert tells them apart.
	w.buf.vals = append(w.buf.vals, head...)
	w.buf.hashes = append(w.buf.hashes, h)
	w.out.hi++
	return nil
}

// grant refreshes the worker's local derivation allowance from the
// shared ledger, checkpointing clock/context and honoring the stop
// flag — the parallel counterpart of Guard.DerivationGrant.
func (w *pWorker) grant(cc *compiledClause) error {
	if w.pb.Stopped() {
		return errPoolStopped
	}
	if err := w.pb.Checkpoint(); err != nil {
		return err
	}
	n, err := w.pb.Reserve(guard.CheckInterval, cc.srcText)
	if err != nil {
		return err
	}
	w.slack = n
	return nil
}

func (w *pWorker) runTask(t pTask, out *pOut) error {
	cc := w.clauses[t.ci]
	w.cur = cc.srcText
	w.full = w.e.work[cc.headPred]
	n := len(w.buf.hashes)
	*out = pOut{buf: &w.buf, lo: n, hi: n, vlo: len(w.buf.vals), w: w.full.Arity()}
	w.out = out
	w.rn.stats = &out.stats
	clear(w.seen)
	// Label the task for CPU profiles (idlogd's -pprof listener, a
	// test's -cpuprofile), which then attribute time per stratum and
	// clause.
	var err error
	pprof.Do(context.Background(), pprof.Labels(
		"stratum", strconv.Itoa(w.e.g.Stratum()),
		"clause", cc.headPred,
	), func(context.Context) {
		err = w.rn.run(cc, t.pos, t.deltaRel, t.lo, t.hi)
	})
	return err
}

// loop pulls tasks off the shared counter until they run out or the
// round stops. Panics are converted to round failures (the engine's
// recover lives on another goroutine), and the worker leaves the
// ledger with its unused grant slack, so Join settles an exact count.
func (w *pWorker) loop(tasks []pTask, outs []*pOut, next *atomic.Int64, wg *sync.WaitGroup) {
	pb := w.pb
	defer wg.Done()
	defer func() {
		if r := recover(); r != nil {
			pb.Fail(guard.Errorf(guard.Internal, w.e.g.Op(),
				"panic in stratum %d (clause %s): %v", w.e.g.Stratum(), w.cur, r))
		}
		pb.Leave(w.slack)
		w.slack = 0
	}()
	for {
		if pb.Stopped() {
			return
		}
		i := int(next.Add(1)) - 1
		if i >= len(tasks) {
			return
		}
		out := &pOut{}
		outs[i] = out
		if err := w.runTask(tasks[i], out); err != nil {
			if err != errPoolStopped {
				pb.Fail(err)
			}
			return
		}
	}
}

// pool is a component's worker pool for its fanned-out rounds.
type pool struct {
	e       *engine
	clauses []*compiledClause // the component plan's clauses, seed clauses first
	workers []*pWorker
}

// poolsBuilt counts worker pools built in this process; the tests read
// it to check that a sequential run builds none.
var poolsBuilt atomic.Uint64

func (e *engine) newPool(clauses []*compiledClause, nw int) *pool {
	poolsBuilt.Add(1)
	p := &pool{e: e, clauses: clauses, workers: make([]*pWorker, nw)}
	for i := range p.workers {
		w := &pWorker{e: e, seen: map[uint64]int{}}
		w.clauses = make([]*compiledClause, len(clauses))
		for j, cc := range clauses {
			w.clauses[j] = cc.clone()
		}
		w.rn = runner{resolve: e.resolve, derive: w.derive}
		p.workers[i] = w
	}
	return p
}

// round evaluates one round's units over the worker pool — each unit
// sharded into tasks, the tasks run against the round-start relations —
// and then merges the candidates in planning order. Sound tuples of a
// failed round are still merged (partial models are prefixes of the
// perfect model), with the round's error taking precedence over a
// budget trip during the merge itself.
func (p *pool) round(units []pTask, sinks map[string]*relation.Relation) error {
	e := p.e
	var tasks []pTask
	for _, u := range units {
		tasks = p.shard(u, tasks)
	}
	if len(tasks) == 0 {
		return nil
	}
	// Forfeit any outstanding sequential grant: Fork snapshots the
	// settled count and Join overwrites it, so spending pre-fork slack
	// afterwards could overshoot the budget.
	e.gslack = 0
	pb := e.g.Fork()
	outs := make([]*pOut, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, w := range p.workers[:min(len(p.workers), len(tasks))] {
		w.pb = pb
		w.buf.vals, w.buf.hashes = w.buf.vals[:0], w.buf.hashes[:0]
		pb.Enter()
		wg.Add(1)
		go w.loop(tasks, outs, &next, &wg)
	}
	wg.Wait()
	pb.Join()
	merr := p.merge(tasks, outs, sinks)
	if err := pb.Err(); err != nil {
		return err
	}
	return merr
}

// merge replays every task's candidates in planning order —
// single-threaded, so insertion order, index maintenance, and the exact
// tuple budget behave exactly as in a direct round. Each candidate
// arrives with its hash, so the insert does not hash it again.
func (p *pool) merge(tasks []pTask, outs []*pOut, sinks map[string]*relation.Relation) error {
	e := p.e
	for i, t := range tasks {
		out := outs[i]
		if out == nil {
			continue
		}
		e.stats.Derivations += out.stats.Derivations
		e.stats.TuplesScanned += out.stats.TuplesScanned
		head := p.clauses[t.ci].headPred
		full, sink := e.work[head], sinks[head]
		for j := out.lo; j < out.hi; j++ {
			tup, h := out.at(j), out.buf.hashes[j]
			if e.governed && e.g.AtTupleLimit() && !full.ContainsHash(tup, h) {
				return e.g.TryTuples(1)
			}
			added, err := full.InsertHash(tup, h)
			if err != nil {
				return err
			}
			if !added {
				continue
			}
			if e.governed {
				if err := e.g.TryTuples(1); err != nil {
					return err
				}
			}
			e.stats.Inserted++
			if sink != nil {
				sink.Append(tup)
			}
		}
	}
	return nil
}

// shard appends unit u's tasks. Sharding applies only when the depth-0
// literal is a positive relational scan or constant-key probe (at depth
// 0 nothing is bound yet, so probe keys are all-constant); other head
// shapes run as one task.
func (p *pool) shard(u pTask, tasks []pTask) []pTask {
	cc := p.clauses[u.ci]
	n := -1
	if len(cc.lits) > 0 {
		cl := &cc.lits[0]
		if cl.builtin == nil && !cl.neg {
			if rel, err := p.e.resolve(cl); err == nil {
				if u.pos == 0 {
					rel = u.deltaRel
				}
				if len(cl.probeCols) == 0 {
					n = rel.Len()
				} else {
					key := cl.keyBuf
					for i, a := range cl.probeArgs {
						key[i] = a.val
					}
					var one [1]int
					n = len(probePositions(rel, cl, key, &one))
				}
			}
		}
	}
	if n < 0 {
		return append(tasks, u)
	}
	if n == 0 {
		return tasks // nothing to enumerate, nothing to derive
	}
	shards := len(p.workers)
	if most := n / minShard; shards > most {
		shards = most
	}
	if shards < 1 {
		shards = 1
	}
	size := (n + shards - 1) / shards
	for lo := 0; lo < n; lo += size {
		u.lo, u.hi = lo, min(lo+size, n)
		tasks = append(tasks, u)
	}
	return tasks
}
