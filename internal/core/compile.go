package core

import (
	"fmt"
	"slices"

	"idlog/internal/analysis"
	"idlog/internal/arith"
	"idlog/internal/ast"
	"idlog/internal/value"
)

// argKind classifies a compiled argument position relative to the static
// binding state at its literal (the body order is fixed when the clause
// is compiled, so the binding state of every position is known then).
type argKind uint8

const (
	// argConst is a constant argument.
	argConst argKind = iota
	// argBound is a variable bound by an earlier literal.
	argBound
	// argBind is the first occurrence of a variable: evaluating the
	// literal binds its slot.
	argBind
	// argCheck is a repeated occurrence, within the same literal, of a
	// variable first bound at an earlier position of this literal.
	argCheck
)

type compiledArg struct {
	kind argKind
	slot int         // for argBound/argBind/argCheck
	val  value.Value // for argConst
}

type compiledLit struct {
	// body is the literal's index in the analysis-order body. The
	// planner may run the literals in another order; provenance lists
	// a derivation's body facts in this one.
	body    int
	neg     bool
	builtin *arith.Builtin // non-nil for interpreted literals
	pred    string         // base predicate for relational literals
	isID    bool
	idKey   string // analysis.IDNeed key for ID-literals
	args    []compiledArg
	// call is builtin bound to the literal's binding pattern, which
	// compilation fixes: the pattern is checked once, not per call.
	call *arith.Call
	// probeCols/probeArgs identify the statically-bound columns used for
	// index probes on relational literals.
	probeCols []int
	probeArgs []compiledArg
	// keyBuf and argsBuf are per-literal scratch space reused across
	// instantiations (clause evaluation is single-threaded).
	keyBuf  value.Tuple
	argsBuf []value.Value
	// recursive marks positive ordinary literals over same-stratum
	// predicates (the semi-naive delta positions).
	recursive bool
	// binds and checks drive the executor's per-tuple match
	// (iterator.go). binds lists the argBind positions whose slot some
	// later literal or the head actually reads — dead binds (variables
	// occurring exactly once) are projected away. checks pairs each
	// argCheck position with the in-literal position that first binds
	// its variable, so repeated-variable selections evaluate against
	// the candidate tuple alone, with no environment round-trip; that
	// is what lets the scan iterator filter during block refill.
	// Provenance capture reads the cursors' tuples, not the
	// environment, so dead binds hide nothing from it.
	binds  []bindPos
	checks []checkPair
}

// bindPos binds tuple position pos into environment slot slot.
type bindPos struct{ pos, slot int }

// checkPair requires the tuple values at pos and first to be equal.
type checkPair struct{ pos, first int }

type compiledClause struct {
	src *analysis.OrderedClause
	// srcText is the clause source rendered once at compile time, so
	// guard and panic diagnostics on the hot path cost no formatting.
	srcText  string
	headPred string
	headArgs []compiledArg
	lits     []compiledLit
	nslots   int
	// recPositions are the indices into lits that are recursive; the
	// semi-naive evaluator substitutes the delta relation at exactly one
	// of them per pass.
	recPositions []int
	// headBuf is scratch space for candidate head tuples; the relation
	// copies it into its arena on actual insertion.
	headBuf value.Tuple
	// iters is the executor's per-literal cursor scratch, allocated
	// lazily on the first walk. Like the other
	// scratch buffers it is single-threaded; clone() resets it.
	iters []litIter
}

// compileClause translates an ordered clause into slot form. ref is the
// analysis-order body that oc's body permutes (nil when oc is in
// analysis order). stratumPred reports whether a predicate belongs to
// the stratum being compiled.
func compileClause(oc *analysis.OrderedClause, ref []*ast.Literal, stratumPred func(string) bool) (*compiledClause, error) {
	cc, _, err := compile(oc, ref, stratumPred, false)
	return cc, err
}

// compileClauseHeadBound compiles oc with every head variable bound
// BEFORE the first body literal: body occurrences of head variables
// become probe-able argBound positions, so the walk restricted to one
// candidate head tuple costs roughly the tuple's join degree instead of
// the clause's full join. The returned seed args describe, per head
// position, how to load a candidate tuple into the environment
// (argConst: the tuple value must equal the constant; argBind: store
// into the slot; argCheck: must equal the slot already stored by an
// earlier head position). This is the rederivation engine of the
// incremental maintenance layer (DRed's "does t still have a
// derivation?" probe).
func compileClauseHeadBound(oc *analysis.OrderedClause, stratumPred func(string) bool) (*compiledClause, []compiledArg, error) {
	return compile(oc, nil, stratumPred, true)
}

func compile(oc *analysis.OrderedClause, ref []*ast.Literal, stratumPred func(string) bool, headBound bool) (*compiledClause, []compiledArg, error) {
	if ref == nil {
		ref = oc.Clause.Body
	}
	slots := map[string]int{}
	slotOf := func(name string) int {
		if s, ok := slots[name]; ok {
			return s
		}
		s := len(slots)
		slots[name] = s
		return s
	}
	cc := &compiledClause{src: oc, srcText: oc.Source.String(), headPred: oc.Clause.Head.Pred}

	bound := map[string]bool{}
	var seed []compiledArg
	if headBound {
		for _, t := range oc.Clause.Head.Args {
			switch t := t.(type) {
			case ast.Const:
				seed = append(seed, compiledArg{kind: argConst, val: t.Val})
			case ast.Var:
				if bound[t.Name] {
					seed = append(seed, compiledArg{kind: argCheck, slot: slotOf(t.Name)})
				} else {
					bound[t.Name] = true
					seed = append(seed, compiledArg{kind: argBind, slot: slotOf(t.Name)})
				}
			default:
				return nil, nil, fmt.Errorf("compile %s: unsupported head term %T", oc.Source, t)
			}
		}
	}
	for li, l := range oc.Clause.Body {
		a := l.Atom
		cl := compiledLit{body: slices.Index(ref, l), neg: l.Neg, pred: a.Pred, isID: a.IsID}
		if b, ok := arith.Lookup(a.Pred); ok {
			cl.builtin = b
		}
		if a.IsID {
			cl.idKey = analysis.IDNeed{Pred: a.Pred, Group: a.Group}.Key()
		}
		litSeen := map[string]int{} // var -> position of first in-literal binding
		for pos, t := range a.Args {
			switch t := t.(type) {
			case ast.Const:
				cl.args = append(cl.args, compiledArg{kind: argConst, val: t.Val})
			case ast.Var:
				switch {
				case bound[t.Name]:
					cl.args = append(cl.args, compiledArg{kind: argBound, slot: slotOf(t.Name)})
				case litSeen[t.Name] > 0:
					cl.args = append(cl.args, compiledArg{kind: argCheck, slot: slotOf(t.Name)})
				default:
					litSeen[t.Name] = pos + 1
					cl.args = append(cl.args, compiledArg{kind: argBind, slot: slotOf(t.Name)})
				}
			default:
				return nil, nil, fmt.Errorf("compile %s: unsupported term %T", oc.Source, t)
			}
		}
		if cl.builtin == nil {
			for pos, ca := range cl.args {
				if ca.kind == argConst || ca.kind == argBound {
					cl.probeCols = append(cl.probeCols, pos)
					cl.probeArgs = append(cl.probeArgs, ca)
				}
			}
			cl.keyBuf = make(value.Tuple, len(cl.probeArgs))
			if !l.Neg && !a.IsID && stratumPred(a.Pred) {
				cl.recursive = true
				cc.recPositions = append(cc.recPositions, li)
			}
		} else {
			bound := make([]bool, len(cl.args))
			for i, ca := range cl.args {
				bound[i] = ca.kind == argConst || ca.kind == argBound
			}
			cl.call = cl.builtin.Bind(bound)
			cl.argsBuf = make([]value.Value, len(cl.args))
		}
		// A positive literal binds all its variables for later literals.
		if !l.Neg {
			for _, t := range a.Args {
				if v, ok := t.(ast.Var); ok {
					bound[v.Name] = true
				}
			}
		}
		cc.lits = append(cc.lits, cl)
	}
	for _, t := range oc.Clause.Head.Args {
		switch t := t.(type) {
		case ast.Const:
			cc.headArgs = append(cc.headArgs, compiledArg{kind: argConst, val: t.Val})
		case ast.Var:
			s, ok := slots[t.Name]
			if !ok {
				return nil, nil, fmt.Errorf("compile %s: head variable %s unbound (analysis should have caught this)", oc.Source, t.Name)
			}
			cc.headArgs = append(cc.headArgs, compiledArg{kind: argBound, slot: s})
		default:
			return nil, nil, fmt.Errorf("compile %s: unsupported head term %T", oc.Source, t)
		}
	}
	cc.nslots = len(slots)
	cc.headBuf = make(value.Tuple, len(cc.headArgs))
	compileStreamPlan(cc, seed)
	return cc, seed, nil
}

// compileStreamPlan computes the executor's projection pushdown: per
// literal, the live argBind positions and the repeated-variable check
// pairs. A slot is live when some literal reads it as argBound (reads
// always follow the unique argBind site) or the head projects it; an
// argBind whose slot is never read is dead and the walk skips the
// store. Head-bound clauses additionally keep every seed slot live (the
// rederivation probe seeds them before the walk). Provenance capture
// copies positive literals from the cursors and rebuilds negated ones
// from the environment; their arguments are all argBound or argConst,
// hence live.
func compileStreamPlan(cc *compiledClause, seed []compiledArg) {
	live := make([]bool, cc.nslots)
	for _, a := range cc.headArgs {
		if a.kind != argConst {
			live[a.slot] = true
		}
	}
	for _, a := range seed {
		if a.kind != argConst {
			live[a.slot] = true
		}
	}
	for i := range cc.lits {
		for _, a := range cc.lits[i].args {
			if a.kind == argBound {
				live[a.slot] = true
			}
		}
	}
	for i := range cc.lits {
		cl := &cc.lits[i]
		first := make(map[int]int, len(cl.args))
		for pos, a := range cl.args {
			switch a.kind {
			case argBind:
				if _, ok := first[a.slot]; !ok {
					first[a.slot] = pos
				}
				if live[a.slot] {
					cl.binds = append(cl.binds, bindPos{pos: pos, slot: a.slot})
				}
			case argCheck:
				cl.checks = append(cl.checks, checkPair{pos: pos, first: first[a.slot]})
			}
		}
	}
}

// clone copies the clause for a plan-cache clone: the static plan
// (args, probe columns, positions) is shared, but every scratch buffer
// — the only mutable state — is fresh, so two runs holding clones can
// walk the same clause concurrently.
func (cc *compiledClause) clone() *compiledClause {
	c := *cc
	c.lits = make([]compiledLit, len(cc.lits))
	copy(c.lits, cc.lits)
	for i := range c.lits {
		cl := &c.lits[i]
		if cl.keyBuf != nil {
			cl.keyBuf = make(value.Tuple, len(cl.keyBuf))
		}
		if cl.argsBuf != nil {
			cl.argsBuf = make([]value.Value, len(cl.argsBuf))
		}
	}
	c.headBuf = make(value.Tuple, len(cc.headBuf))
	c.iters = nil
	return &c
}
