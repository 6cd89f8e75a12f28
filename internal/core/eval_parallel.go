package core

import (
	"context"
	"errors"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"idlog/internal/analysis"
	"idlog/internal/guard"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// This file implements the parallel semi-naive fixpoint. Each round of
// a component is split into tasks — one (clause, delta-position) pair per
// task, further sharded over the depth-0 literal's enumeration range —
// and the tasks are evaluated by a bounded worker pool against the
// round-start state of the relations. Workers only READ shared state
// (the work relations, materialized ID-relations, and earlier strata);
// all insertion happens afterwards in a single-threaded merge that
// visits tasks in their deterministic planning order. The model is a
// strict read-phase / merge-phase alternation: the WaitGroup barrier
// between the phases is the happens-before edge that makes the lazily
// built relation indexes (atomic copy-on-write) safe to probe from
// many workers at once.
//
// Why answers are byte-identical to sequential evaluation:
//   - The fixpoint SET is the same: both evaluators apply the same
//     monotone immediate-consequence operator under a fair schedule,
//     and every same-stratum literal is a delta position, so a tuple
//     first visible mid-round to the sequential engine is re-derived
//     from the next round's delta here. Strata are evaluated in the
//     same order, and negation/ID-literals read only earlier strata,
//     which are complete and identical in both modes.
//   - ID assignment is insertion-order independent: relation.Groups
//     presents group members in canonical sorted order and oracles
//     draw from the group's content, never from arrival order. Equal
//     sets therefore mean equal ID-relations, equal sampling, and
//     equal C3-equivalence results.
//   - Moreover the merge visits tasks in planning order and each
//     task's derivations arrive in enumeration order, so for a fixed
//     program the insertion order itself is invariant across worker
//     counts ≥ 2 (shard boundaries only cut the enumeration sequence;
//     concatenation restores it).
//
// Partition-parallel evaluation (Options.Partitions > 1) strengthens
// the data layout instead of just sharding ranges: a delta unit whose
// plan carries a partition key (plan.go choosePartition) becomes one
// task per partition, with the delta radix-partitioned on the key
// column and the probed relation's matching partition substituted at
// the probe depth. Partition-local probe indexes are built by whichever
// worker first probes the partition — in parallel, with no shared-index
// contention — and empty delta partitions never run, so unreached
// partitions never pay an index build at all. Determinism weakens by
// exactly one notch and no further: partitioning permutes the delta
// enumeration sequence (tuples are visited partition-by-partition
// instead of in delta order), so the *insertion order* differs from an
// unpartitioned run — but the per-round derivation SET is identical
// (the partition function covers the matches exactly: a probe key
// always pins the partition variable, so every match of a delta tuple
// lives in that tuple's partition), and every observable output —
// answer sets, ID assignment, Fingerprint, Derivations/Inserted/
// Iterations — is insertion-order independent, as argued above. Units
// without a partition key, and clause bodies containing ID-literals or
// negation, fall back to the range-sharded path; both kinds of task
// coexist in one round and merge in the same planning order.
//
// Governance: derivation budgets flow through a guard.Parallel ledger
// (atomic reserve/refund grants, exact after Join); the tuple budget
// stays exact because only the single-threaded merge stores tuples.
// The first failing worker raises the shared stop flag and its typed
// error wins; sibling workers drain cooperatively at the next grant or
// task boundary.

// errPoolStopped unwinds a worker when a sibling has already failed;
// the sibling's error is the one reported.
var errPoolStopped = errors.New("parallel pool stopped")

// minShard is the smallest depth-0 enumeration range worth splitting:
// below it, task dispatch overhead exceeds the join work.
const minShard = 16

// minParallelDelta gates the delta rounds of recursive components: a
// round whose total delta is smaller runs its tasks inline on the
// coordinating goroutine, one task per delta unit and unpartitioned, so
// it pays neither goroutine fan-out nor radix partitioning and its
// partition-local index builds. Seed rounds and non-recursive components
// always fan out. At this size the fixed cost of a fan-out is under
// 0.5 % of the round's join work; DESIGN.md §6b records the measurement.
const minParallelDelta = 4096

// pTask is one unit of parallel work: clause ci with the delta
// relation substituted at position pos (-1 = seed pass), restricted to
// the [lo, hi) shard of the depth-0 enumeration range (hi = -1 means
// the whole range). A partitioned task additionally carries the
// partition-local probe relation substituted at partDepth and its
// partition index (partRel == nil marks a range-sharded task).
type pTask struct {
	ci        int
	pos       int
	lo, hi    int
	deltaRel  *relation.Relation
	partRel   *relation.Relation
	partDepth int
	partIdx   int
}

// pOut is one task's result: candidate head tuples in enumeration
// order (cloned out of worker scratch, deduplicated within the task
// and against the round-start relation) plus private counters.
type pOut struct {
	derived []value.Tuple
	stats   Stats
}

// pWorker is one evaluation goroutine: private compiled-clause copies
// (the per-literal scratch buffers are single-threaded), a runner
// bound to them, and a local slice of the shared derivation grant.
type pWorker struct {
	e       *engine
	pb      *guard.Parallel
	clauses []*compiledClause // private copies, indexed like the shared slice
	rn      runner
	slack   int    // derivations still allowed under the current grant
	cur     string // source text of the clause under evaluation (panic context)

	// Per-task state, rebound by runTask.
	out  *pOut
	full *relation.Relation  // round-start head relation (read-only here)
	seen map[string]struct{} // within-task dedup
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
	if w.full.Contains(head) {
		return nil
	}
	var buf [64]byte
	key := head.AppendKey(buf[:0])
	if _, dup := w.seen[string(key)]; dup {
		return nil
	}
	w.seen[string(key)] = struct{}{}
	w.out.derived = append(w.out.derived, head.Clone())
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
	w.out = out
	w.rn.stats = &out.stats
	w.rn.partRel, w.rn.partDepth = t.partRel, t.partDepth
	w.full = w.e.work[cc.headPred]
	clear(w.seen)
	// Label the task for CPU profiles: `idlog -pprof` (and idlogd's
	// /debug/pprof) then attribute time per stratum, clause, and
	// partition, which is how partition skew is diagnosed.
	part := "-"
	if t.partRel != nil {
		part = strconv.Itoa(t.partIdx)
	}
	var err error
	pprof.Do(context.Background(), pprof.Labels(
		"stratum", strconv.Itoa(w.e.g.Stratum()),
		"clause", cc.headPred,
		"partition", part,
	), func(context.Context) {
		err = w.rn.run(cc, t.pos, t.deltaRel, t.lo, t.hi)
	})
	return err
}

// loop pulls tasks off the shared counter until they run out or the
// pool stops. Panics are converted to pool failures (the sequential
// engine's recover lives on another goroutine), and unused grant slack
// is refunded so Join settles an exact count.
func (w *pWorker) loop(pb *guard.Parallel, tasks []pTask, outs []*pOut, next *atomic.Int64, wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() {
		if r := recover(); r != nil {
			pb.Fail(guard.Errorf(guard.Internal, w.e.g.Op(),
				"panic in stratum %d (clause %s): %v", w.e.g.Stratum(), w.cur, r))
		}
		if w.e.governed && w.slack > 0 {
			pb.Refund(w.slack)
			w.slack = 0
		}
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

// parallelFixpoint is seminaiveFixpoint with each round's evaluation
// fanned out over the worker pool and its insertions replayed through
// the deterministic ordered merge. Delta rounds below minParallelDelta
// run inline, through the same tasks and merge.
func (e *engine) parallelFixpoint(c *analysis.Component, sp *componentPlan) error {
	clauses := sp.all // seed clauses first, delta-first variants after
	// Forfeit any outstanding sequential grant: Fork snapshots the
	// settled count and Join overwrites it, so spending pre-fork slack
	// afterwards could overshoot the budget.
	e.gslack = 0
	pb := e.g.Fork()
	defer pb.Join()

	nw := e.workers()
	workers := make([]*pWorker, nw)
	for i := range workers {
		w := &pWorker{e: e, pb: pb, seen: map[string]struct{}{}}
		w.clauses = make([]*compiledClause, len(clauses))
		for j, cc := range clauses {
			w.clauses[j] = cc.clone()
		}
		w.rn = runner{resolve: e.resolve, derive: w.derive}
		workers[i] = w
	}

	runRound := func(tasks []pTask, inline bool) []*pOut {
		outs := make([]*pOut, len(tasks))
		var next atomic.Int64
		var wg sync.WaitGroup
		if inline {
			// The coordinating goroutine runs every task itself, on
			// worker 0's private clauses.
			wg.Add(1)
			workers[0].loop(pb, tasks, outs, &next, &wg)
			return outs
		}
		n := nw
		if len(tasks) < n {
			n = len(tasks)
		}
		for i := 0; i < n; i++ {
			wg.Add(1)
			go workers[i].loop(pb, tasks, outs, &next, &wg)
		}
		wg.Wait()
		return outs
	}

	// merge replays every task's derivations in planning order —
	// single-threaded, so insertion order, index maintenance, and the
	// exact tuple budget behave exactly as in a sequential run. Sound
	// tuples from a failed round are still merged (partial models are
	// prefixes of the perfect model), with the round's error taking
	// precedence over a budget trip during the merge itself.
	merge := func(tasks []pTask, outs []*pOut, sink map[string]*relation.Relation) error {
		for i, t := range tasks {
			out := outs[i]
			if out == nil {
				continue
			}
			e.stats.Derivations += out.stats.Derivations
			e.stats.TuplesScanned += out.stats.TuplesScanned
			cc := clauses[t.ci]
			full := e.work[cc.headPred]
			for _, tup := range out.derived {
				if e.governed && e.g.AtTupleLimit() && !full.Contains(tup) {
					return e.g.TryTuples(1)
				}
				added, err := full.Insert(tup) // tup is the worker's private clone
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
					sink[cc.headPred].Append(tup)
				}
			}
		}
		return nil
	}

	// plan appends the task shards for (ci, pos). Sharding applies only
	// when the depth-0 literal is a positive relational scan or
	// constant-key probe (at depth 0 nothing is bound yet, so probe
	// keys are all-constant); other head shapes run as one task.
	plan := func(ci, pos int, deltaRel *relation.Relation, tasks []pTask) []pTask {
		cc := clauses[ci]
		n := -1
		if len(cc.lits) > 0 {
			cl := &cc.lits[0]
			if cl.builtin == nil && !cl.neg {
				if rel, err := e.resolve(cl); err == nil {
					if pos == 0 {
						rel = deltaRel
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
			return append(tasks, pTask{ci: ci, pos: pos, lo: 0, hi: -1, deltaRel: deltaRel})
		}
		if n == 0 {
			return tasks // nothing to enumerate, nothing to derive
		}
		shards := nw
		if most := n / minShard; shards > most {
			shards = most
		}
		if shards < 1 {
			shards = 1
		}
		size := (n + shards - 1) / shards
		for lo := 0; lo < n; lo += size {
			hi := lo + size
			if hi > n {
				hi = n
			}
			tasks = append(tasks, pTask{ci: ci, pos: pos, lo: lo, hi: hi, deltaRel: deltaRel})
		}
		return tasks
	}

	finish := func(tasks []pTask, outs []*pOut, sink map[string]*relation.Relation) error {
		merr := merge(tasks, outs, sink)
		if err := pb.Err(); err != nil {
			return err
		}
		return merr
	}

	// Seed round: every clause once against the full relations. Only
	// recursive components need the delta sinks for the rounds that
	// follow.
	e.stats.Iterations++
	var delta map[string]*relation.Relation
	if c.Recursive {
		delta = map[string]*relation.Relation{}
		for _, p := range c.Preds {
			delta[p] = relation.NewDelta(p, e.work[p].Arity(), 0)
		}
	}
	var tasks []pTask
	for ci := 0; ci < sp.nseed; ci++ {
		tasks = plan(ci, -1, nil, tasks)
	}
	if err := finish(tasks, runRound(tasks, false), delta); err != nil {
		return err
	}
	if !c.Recursive {
		return nil
	}

	var recursive []int
	for ci := 0; ci < sp.nseed; ci++ {
		if len(sp.units[ci]) > 0 {
			recursive = append(recursive, ci)
		}
	}

	// Partition-parallel state. probeParts caches each probed relation's
	// partitioning across rounds, keyed by (predicate, key column): the
	// relation identity is stable for the whole component, so a cached
	// partitioning only needs Refresh (routing the tuples the previous
	// merge appended) instead of a rebuild. Both NewPartitioned and
	// Refresh run here in the single-threaded planning phase, with the
	// round's WaitGroup barrier ordering them against worker reads.
	nparts := e.partitions()
	type probeKey struct {
		pred string
		col  int
	}
	var probeParts map[probeKey]*relation.Partitioned
	getParts := func(pred string, col int) *relation.Partitioned {
		if probeParts == nil {
			probeParts = map[probeKey]*relation.Partitioned{}
		}
		k := probeKey{pred, col}
		if pp := probeParts[k]; pp != nil {
			pp.Refresh()
			return pp
		}
		pp := relation.NewPartitioned(e.work[pred], []int{col}, nparts)
		probeParts[k] = pp
		return pp
	}

	for {
		total := 0
		for _, d := range delta {
			total += d.Len()
		}
		if total == 0 || len(recursive) == 0 {
			return nil
		}
		if e.governed {
			if err := e.g.Checkpoint(); err != nil {
				return err
			}
		}
		e.stats.Iterations++
		next := map[string]*relation.Relation{}
		for _, p := range c.Preds {
			next[p] = relation.NewDelta(p, e.work[p].Arity(), delta[p].Len())
		}
		inline := total < minParallelDelta
		tasks = tasks[:0]
		partedRound := false
		for _, ci := range recursive {
			for _, u := range sp.units[ci] {
				cc := clauses[u.idx]
				d := delta[cc.lits[u.pos].pred]
				if d == nil || d.Len() == 0 {
					continue
				}
				if inline {
					tasks = append(tasks, pTask{ci: u.idx, pos: u.pos, lo: 0, hi: -1, deltaRel: d})
					continue
				}
				if nparts > 1 && u.pos == 0 && u.part != nil {
					// Partitioned unit: one task per non-empty delta
					// partition, each probing the co-placed partition of
					// the probe relation. Skipped partitions are the
					// pruning win — they never build a probe index.
					spec := u.part
					dp := relation.NewPartitioned(d, []int{spec.deltaCol}, nparts)
					pr := getParts(cc.lits[spec.probeDepth].pred, spec.probeCol)
					if sk := dp.Skew(); sk > e.stats.PartitionSkew {
						e.stats.PartitionSkew = sk
					}
					if nparts > e.stats.Partitions {
						e.stats.Partitions = nparts
					}
					partedRound = true
					for k := 0; k < nparts; k++ {
						if dp.PartLen(k) == 0 {
							continue
						}
						tasks = append(tasks, pTask{ci: u.idx, pos: 0, lo: 0, hi: -1,
							deltaRel: dp.Part(k), partRel: pr.Part(k),
							partDepth: spec.probeDepth, partIdx: k})
					}
					continue
				}
				tasks = plan(u.idx, u.pos, d, tasks)
			}
		}
		if partedRound {
			e.stats.PartitionedRounds++
		}
		if err := finish(tasks, runRound(tasks, inline), next); err != nil {
			return err
		}
		delta = next
	}
}
