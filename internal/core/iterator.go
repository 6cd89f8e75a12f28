package core

import (
	"fmt"

	"idlog/internal/relation"
	"idlog/internal/value"
)

// This file implements the join executor: a pipeline of composable
// get-next cursors, one per body literal, driven by an explicit depth
// loop. The pipeline is single-use — open positions a cursor under the
// current bindings, next pulls one satisfying tuple, and exhaustion pops
// back to the previous literal — so per-round intermediates are never
// materialized: a body instantiation lives only as the environment
// slots currently pinned by the cursor stack, and the tuples the cursors
// last yielded.
//
// open snapshots what it enumerates (relation length for scans, the
// index bucket for probes, the builtin's solutions) and counts the
// snapshot range into TuplesScanned up front; next yields in position
// order. Per tuple:
//   - Selection pushdown: repeated-variable checks (cl.checks) compare
//     positions of the candidate tuple directly, so the scan cursor
//     filters while refilling its block buffer and rejected tuples
//     never surface to the join loop.
//   - Projection pushdown: only live binds (cl.binds) are stored into
//     the environment; a variable read by nothing downstream costs
//     nothing per tuple. Provenance capture reads the whole body
//     instantiation from the cursors (current), not the environment.

// scanChunk is the scan cursor's refill granularity: small enough to
// stay resident in cache, large enough to amortize the per-call cost of
// Relation.Scan over disk-backed blocks.
const scanChunk = 256

type iterKind uint8

const (
	iterScan iterKind = iota
	iterProbe
	iterOnce // negation (relational or builtin): yields at most once
	iterBuiltin
)

// litIter is one literal's cursor. The zero value is open-able; cursors
// live in compiledClause.iters scratch and are re-opened in place, so a
// clause walk allocates nothing but its environment.
type litIter struct {
	kind iterKind
	cl   *compiledLit
	rel  *relation.Relation

	// Scan state: next refill position, snapshot end, and the buffer of
	// pre-filtered tuples (retained across opens for its capacity).
	pos, hi int
	buf     []value.Tuple
	bufIdx  int

	// Probe state: the index bucket slice and snapshot length; one backs
	// the slice of a full-key probe (see probePositions).
	positions []int
	idx, n    int
	one       [1]int

	// Builtin state.
	sols   [][]value.Value
	solIdx int

	// iterOnce state: whether the single yield remains and succeeds.
	armed bool
}

// checksPass evaluates the repeated-variable selections against one
// candidate tuple (or builtin solution), no environment involved.
func checksPass(checks []checkPair, t []value.Value) bool {
	for _, c := range checks {
		if !t[c.pos].Equal(t[c.first]) {
			return false
		}
	}
	return true
}

// openIter positions the cursor for the literal at depth under the
// current environment. lo/hi carry the parallel shard bounds for the
// depth-0 literal (hi = -1 means unrestricted); deeper opens pass 0,-1.
func (rn *runner) openIter(cc *compiledClause, it *litIter, depth int, env []value.Value, deltaPos int, deltaRel *relation.Relation, lo, hi int) error {
	cl := &cc.lits[depth]
	it.cl = cl
	if cl.builtin != nil {
		args, mask := cl.argsBuf, cl.maskBuf
		for i, a := range cl.args {
			switch a.kind {
			case argConst:
				args[i] = a.val
				mask[i] = true
			case argBound:
				args[i] = env[a.slot]
				mask[i] = true
			default:
				args[i] = value.Value{}
				mask[i] = false
			}
		}
		sols, err := cl.builtin.Solve(args, mask)
		if err != nil {
			return fmt.Errorf("clause %s: %w", cc.src.Source, err)
		}
		if cl.neg {
			it.kind = iterOnce
			it.armed = len(sols) == 0
			return nil
		}
		it.kind = iterBuiltin
		it.sols, it.solIdx = sols, 0
		return nil
	}
	rel, err := rn.resolve(cl)
	if err != nil {
		return err
	}
	if depth == deltaPos {
		rel = deltaRel
	} else if rn.partRel != nil && depth == rn.partDepth {
		rel = rn.partRel
	}
	if cl.neg {
		// Negated literals are fully bound (safety), so probeArgs covers
		// every position and keyBuf has full arity.
		t := cl.keyBuf
		if len(t) != len(cl.args) {
			t = make(value.Tuple, len(cl.args))
		}
		for i, a := range cl.args {
			if a.kind == argConst {
				t[i] = a.val
			} else {
				t[i] = env[a.slot]
			}
		}
		it.kind = iterOnce
		it.armed = !rel.Contains(t)
		return nil
	}
	it.rel = rel
	if len(cl.probeCols) == 0 {
		if hi < 0 {
			lo, hi = 0, rel.Len()
		}
		rn.stats.TuplesScanned += hi - lo
		it.kind = iterScan
		it.pos, it.hi = lo, hi
		it.buf, it.bufIdx = it.buf[:0], 0
		return nil
	}
	key := cl.keyBuf
	for i, a := range cl.probeArgs {
		if a.kind == argConst {
			key[i] = a.val
		} else {
			key[i] = env[a.slot]
		}
	}
	// The positions slice is the index's own bucket and must not be
	// mutated. Inserts during iteration may append to it, but appended
	// tuples are new head derivations of *other* relations (a clause
	// never inserts into a relation it scans in the same instantiation
	// path — recursive clauses read delta copies), so the snapshot of
	// its length keeps iteration well-defined.
	positions := probePositions(rel, cl, key, &it.one)
	n := len(positions)
	if hi >= 0 {
		positions, n = positions[lo:hi], hi-lo
	}
	rn.stats.TuplesScanned += n
	it.kind = iterProbe
	it.positions, it.idx, it.n = positions, 0, n
	return nil
}

// probePositions returns the positions of rel whose projection onto
// cl.probeCols equals key. A key over every column of a set relation
// (probeCols ascend, so key is then the tuple itself) is answered by one
// primary-table lookup, written into one, rather than by an all-columns
// secondary index that would duplicate the primary table; the 0 or 1
// position it yields is what that index's bucket would hold.
func probePositions(rel *relation.Relation, cl *compiledLit, key value.Tuple, one *[1]int) []int {
	if len(cl.probeCols) == rel.Arity() && !rel.AppendOnly() {
		p := rel.Lookup(key)
		if p < 0 {
			return nil
		}
		one[0] = p
		return one[:]
	}
	return rel.Probe(cl.probeCols, key)
}

// nextIter pulls the cursor's next satisfying tuple, binding its live
// variables into env, and reports whether one was produced.
func (rn *runner) nextIter(it *litIter, env []value.Value) bool {
	cl := it.cl
	switch it.kind {
	case iterOnce:
		ok := it.armed
		it.armed = false
		return ok
	case iterBuiltin:
		for it.solIdx < len(it.sols) {
			sol := it.sols[it.solIdx]
			it.solIdx++
			if !checksPass(cl.checks, sol) {
				continue
			}
			for _, b := range cl.binds {
				env[b.slot] = sol[b.pos]
			}
			return true
		}
		return false
	case iterProbe:
		for it.idx < it.n {
			t := it.rel.At(it.positions[it.idx])
			it.idx++
			if !checksPass(cl.checks, t) {
				continue
			}
			for _, b := range cl.binds {
				env[b.slot] = t[b.pos]
			}
			return true
		}
		return false
	default: // iterScan
		for {
			if it.bufIdx < len(it.buf) {
				t := it.buf[it.bufIdx]
				it.bufIdx++
				for _, b := range cl.binds {
					env[b.slot] = t[b.pos]
				}
				return true
			}
			if it.pos >= it.hi {
				return false
			}
			it.refill(cl)
		}
	}
}

// refill advances the scan cursor by one chunk, applying the pushed-down
// selections so the buffer holds only matching tuples. Scan streams
// block-at-a-time from disk-backed relations, so a chunked scan never
// materializes a disk relation in memory.
func (it *litIter) refill(cl *compiledLit) {
	end := it.pos + scanChunk
	if end > it.hi {
		end = it.hi
	}
	it.buf, it.bufIdx = it.buf[:0], 0
	it.rel.Scan(it.pos, end, func(_ int, t value.Tuple) bool {
		if checksPass(cl.checks, t) {
			it.buf = append(it.buf, t)
		}
		return true
	})
	it.pos = end
}

// current returns the tuple the cursor last yielded — the scan or probe
// tuple, or the builtin solution — or nil for an iterOnce cursor, which
// yields no tuple. Valid between a successful nextIter and the next
// open or next on the cursor.
func (it *litIter) current() []value.Value {
	switch it.kind {
	case iterScan:
		return it.buf[it.bufIdx-1]
	case iterProbe:
		return it.rel.At(it.positions[it.idx-1])
	case iterBuiltin:
		return it.sols[it.solIdx-1]
	}
	return nil
}

// run walks cc with the delta relation substituted at deltaPos (-1 for
// none). lo/hi restrict the depth-0 literal's enumeration range to
// [lo, hi) — the parallel shard bounds; hi = -1 means unrestricted.
func (rn *runner) run(cc *compiledClause, deltaPos int, deltaRel *relation.Relation, lo, hi int) error {
	env := make([]value.Value, cc.nslots)
	return rn.walk(cc, env, deltaPos, deltaRel, lo, hi)
}

// walk is the executor's driver: an explicit open/next/pop loop over
// the cursor stack. The environment may arrive pre-seeded (head-bound
// rederivation probes seed the head slots from a candidate tuple) and
// is never cleared, so it may be reused across walks; compilation
// guarantees every slot read was bound earlier in the same walk or by
// the seed.
func (rn *runner) walk(cc *compiledClause, env []value.Value, deltaPos int, deltaRel *relation.Relation, lo, hi int) error {
	last := len(cc.lits) - 1
	if last < 0 {
		return rn.deriveHead(cc, env)
	}
	if cc.iters == nil {
		cc.iters = make([]litIter, len(cc.lits))
	}
	iters := cc.iters
	if err := rn.openIter(cc, &iters[0], 0, env, deltaPos, deltaRel, lo, hi); err != nil {
		return err
	}
	depth := 0
	for depth >= 0 {
		if !rn.nextIter(&iters[depth], env) {
			depth--
			continue
		}
		if depth == last {
			if err := rn.deriveHead(cc, env); err != nil {
				return err
			}
			continue
		}
		depth++
		if err := rn.openIter(cc, &iters[depth], depth, env, deltaPos, deltaRel, 0, -1); err != nil {
			return err
		}
	}
	return nil
}

// deriveHead assembles the candidate head tuple in scratch and hands it
// to the derive hook.
func (rn *runner) deriveHead(cc *compiledClause, env []value.Value) error {
	head := cc.headBuf
	for i, a := range cc.headArgs {
		if a.kind == argConst {
			head[i] = a.val
		} else {
			head[i] = env[a.slot]
		}
	}
	return rn.derive(cc, env, head)
}
