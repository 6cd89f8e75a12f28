package core

import (
	"fmt"
	"strings"

	"idlog/internal/value"
)

// Provenance support: when Options.Trace is set, the engine records,
// for every derived tuple, the clause and the ground body facts of its
// FIRST derivation. First derivations are well-founded (they only use
// tuples that already existed), so the recorded graph is acyclic and
// Explain can always print a finite tree.

// provFact is one ground body literal of a derivation.
type provFact struct {
	pred    string
	neg     bool
	isID    bool
	builtin bool
	tuple   value.Tuple
}

func (f provFact) String() string {
	s := f.pred
	if len(f.tuple) > 0 {
		s += f.tuple.String()
	}
	if f.neg {
		s = "not " + s
	}
	return s
}

// provEntry is the first derivation of one tuple.
type provEntry struct {
	clause string // rendered clause
	body   []provFact
}

// provKey addresses a derived tuple.
func provKey(pred string, t value.Tuple) string {
	return pred + "|" + t.Key()
}

// recordProvenance captures the ground body of the current
// instantiation. It runs inside the derive hook, while every cursor of
// cc's walk still holds the tuple it last yielded: positive literals
// copy that tuple, so variables the executor projected away are still
// recorded. Negated literals yield no tuple; safety binds all their
// arguments, and the executor keeps bound slots live, so they are
// rebuilt from args and env. Each fact goes to its literal's position
// in the analysis-order body, whatever order the plan ran the literals
// in, so a derivation's facts read in the same order under every plan.
func (e *engine) recordProvenance(cc *compiledClause, env []value.Value, stored value.Tuple) {
	if e.prov == nil {
		return
	}
	key := provKey(cc.headPred, stored)
	if _, ok := e.prov[key]; ok {
		return
	}
	entry := provEntry{clause: cc.src.Source.String(), body: make([]provFact, len(cc.lits))}
	for i := range cc.lits {
		cl := &cc.lits[i]
		var t value.Tuple
		if cl.neg {
			t = make(value.Tuple, len(cl.args))
			for pos, a := range cl.args {
				if a.kind == argConst {
					t[pos] = a.val
				} else {
					t[pos] = env[a.slot]
				}
			}
		} else {
			t = append(value.Tuple(nil), cc.iters[i].current()...)
		}
		entry.body[cl.body] = provFact{
			pred:    cl.pred,
			neg:     cl.neg,
			isID:    cl.isID,
			builtin: cl.builtin != nil,
			tuple:   t,
		}
	}
	e.prov[key] = entry
}

// Explain renders the derivation tree of a tuple of a derived predicate,
// up to maxDepth levels (0 = default 16). It returns an error when the
// run was not traced or the tuple was not derived.
func (r *Result) Explain(pred string, t value.Tuple, maxDepth int) (string, error) {
	if r.prov == nil {
		return "", fmt.Errorf("explain: evaluation was not traced (set Options.Trace)")
	}
	rel := r.rels[pred]
	if rel == nil || !rel.Contains(t) {
		return "", fmt.Errorf("explain: %s%s is not in the model", pred, t)
	}
	if maxDepth == 0 {
		maxDepth = 16
	}
	var b strings.Builder
	r.explain(&b, pred, t, 0, maxDepth)
	return b.String(), nil
}

func (r *Result) explain(b *strings.Builder, pred string, t value.Tuple, depth, maxDepth int) {
	indent := strings.Repeat("  ", depth)
	entry, ok := r.prov[provKey(pred, t)]
	if !ok {
		// Not derived by a clause: an input fact (or an undived atom).
		fmt.Fprintf(b, "%s%s%s  [input]\n", indent, pred, t)
		return
	}
	fmt.Fprintf(b, "%s%s%s  <=  %s\n", indent, pred, t, entry.clause)
	if depth+1 >= maxDepth {
		fmt.Fprintf(b, "%s  ... (depth limit)\n", indent)
		return
	}
	for _, f := range entry.body {
		switch {
		case f.builtin:
			fmt.Fprintf(b, "%s  %s  [arithmetic]\n", indent, f)
		case f.neg:
			fmt.Fprintf(b, "%s  %s  [absent]\n", indent, f)
		case f.isID:
			fmt.Fprintf(b, "%s  %s  [ID-relation choice]\n", indent, f)
		default:
			r.explain(b, f.pred, f.tuple, depth+1, maxDepth)
		}
	}
}
