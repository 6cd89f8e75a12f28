package choice

import (
	"fmt"
	"sort"

	"idlog/internal/analysis"
	"idlog/internal/ast"
	"idlog/internal/core"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// Options configures DATALOG^C evaluation.
type Options struct {
	// Oracle picks the functional subsets (and any ID-functions the
	// program itself uses); nil defaults to relation.SortedOracle.
	Oracle relation.Oracle
	// Eval configures the underlying fixpoint runs (its Oracle field is
	// overridden by Oracle above).
	Eval core.Options
}

// plan carries the two compiled halves of the KN88 construction.
type plan struct {
	occs []*Occurrence
	// pcInfo evaluates P_c (step 1: the unique minimal model of P_c).
	pcInfo *analysis.Info
	// residualInfo evaluates the non-choice clauses with the chosen
	// functional subsets installed as input relations (step 3).
	residualInfo *analysis.Info
}

func buildPlan(prog *ast.Program) (*plan, error) {
	pc, occs, err := BuildPc(prog)
	if err != nil {
		return nil, err
	}
	pcInfo, err := analysis.Analyze(pc)
	if err != nil {
		return nil, err
	}
	// Residual program: the rewritten original clauses only; the
	// choice-clauses (appended last by BuildPc) are dropped so that each
	// extChoice_i becomes an input predicate holding S_i.
	residual := &ast.Program{Clauses: pc.Clauses[:len(prog.Clauses)]}
	residualInfo, err := analysis.Analyze(residual)
	if err != nil {
		return nil, err
	}
	return &plan{occs: occs, pcInfo: pcInfo, residualInfo: residualInfo}, nil
}

// choiceRelations runs step 1 and returns each choice-predicate's full
// relation (the domain from which functional subsets are drawn). Under
// (C1)+(C2) these relations do not depend on any choice, so they are
// computed once even when enumerating.
func (p *plan) choiceRelations(db *core.Database, opts Options) (map[string]*relation.Relation, error) {
	evalOpts := opts.Eval
	evalOpts.Oracle = opts.Oracle
	res, err := core.Eval(p.pcInfo, db, evalOpts)
	if err != nil {
		return nil, err
	}
	out := map[string]*relation.Relation{}
	for _, occ := range p.occs {
		r := res.Relation(occ.Pred)
		if r == nil {
			return nil, fmt.Errorf("choice: predicate %s missing from P_c model", occ.Pred)
		}
		out[occ.Pred] = r
	}
	return out, nil
}

// functionalSubset picks one tuple per domain-group of ext using the
// oracle: exactly the tuples that receive tid 0 under the oracle's
// ID-function, which is a functional subset w.r.t. domain → range.
func functionalSubset(ext *relation.Relation, domainCols []int, o relation.Oracle) (*relation.Relation, error) {
	idr, err := relation.MaterializeIDBounded(ext, ext.Name()+"_id", domainCols, o, 1)
	if err != nil {
		return nil, err
	}
	sel := relation.New(ext.Name(), ext.Arity())
	tidCol := ext.Arity()
	for _, t := range idr.Tuples() {
		sel.MustInsert(t[:tidCol])
	}
	return sel, nil
}

// residualRun executes step 3 for the given functional subsets.
func (p *plan) residualRun(db *core.Database, subsets map[string]*relation.Relation, opts Options) (*core.Result, error) {
	rdb := db.Clone()
	for name, s := range subsets {
		rdb.SetRelation(name, s)
	}
	evalOpts := opts.Eval
	evalOpts.Oracle = opts.Oracle
	return core.Eval(p.residualInfo, rdb, evalOpts)
}

// Eval computes one intended model of the DATALOG^C program under the
// oracle's choices and returns its relations.
func Eval(prog *ast.Program, db *core.Database, opts Options) (*core.Result, error) {
	p, err := buildPlan(prog)
	if err != nil {
		return nil, err
	}
	oracle := opts.Oracle
	if oracle == nil {
		oracle = relation.SortedOracle{}
	}
	opts.Oracle = oracle
	exts, err := p.choiceRelations(db, opts)
	if err != nil {
		return nil, err
	}
	subsets := map[string]*relation.Relation{}
	for _, occ := range p.occs {
		s, err := functionalSubset(exts[occ.Pred], occ.DomainCols, oracle)
		if err != nil {
			return nil, err
		}
		subsets[occ.Pred] = s
	}
	return p.residualRun(db, subsets, opts)
}

// EnumerateOptions bounds Enumerate.
type EnumerateOptions struct {
	// MaxRuns caps residual evaluations (0 = 100000 default).
	MaxRuns int
	// Eval configures the underlying runs.
	Eval core.Options
}

// Enumerate computes the full set of intended models of the DATALOG^C
// program restricted to the output predicates preds: every combination
// of functional subsets across all choice-predicates and groups.
// Answers are deduplicated and sorted by fingerprint.
func Enumerate(prog *ast.Program, db *core.Database, preds []string, opts EnumerateOptions) ([]*core.Answer, error) {
	p, err := buildPlan(prog)
	if err != nil {
		return nil, err
	}
	maxRuns := opts.MaxRuns
	if maxRuns == 0 {
		maxRuns = 100000
	}
	evalOpts := Options{Oracle: relation.SortedOracle{}, Eval: opts.Eval}
	exts, err := p.choiceRelations(db, evalOpts)
	if err != nil {
		return nil, err
	}

	// Flatten all (occurrence, group) slots for the odometer.
	type slot struct {
		pred    string
		key     value.Tuple
		members []value.Tuple
	}
	var slots []slot
	for _, occ := range p.occs {
		for _, g := range exts[occ.Pred].Groups(occ.DomainCols) {
			slots = append(slots, slot{pred: occ.Pred, key: g.Key, members: g.Members})
		}
	}
	picks := make([]int, len(slots))
	runs := 0
	seen := map[string]*core.Answer{}

	for {
		if runs >= maxRuns {
			return nil, &core.ErrEnumerationBudget{Runs: maxRuns}
		}
		runs++
		subsets := map[string]*relation.Relation{}
		for _, occ := range p.occs {
			subsets[occ.Pred] = relation.New(occ.Pred, len(occ.Domain)+len(occ.Range))
		}
		for i, s := range slots {
			subsets[s.pred].MustInsert(s.members[picks[i]])
		}
		res, err := p.residualRun(db, subsets, evalOpts)
		if err != nil {
			return nil, err
		}
		ans := &core.Answer{Relations: map[string]*relation.Relation{}}
		for _, q := range preds {
			r := res.Relation(q)
			if r == nil {
				return nil, fmt.Errorf("choice: unknown output predicate %s", q)
			}
			ans.Relations[q] = r
		}
		seen[ans.Fingerprint()] = ans

		// Advance the odometer.
		i := 0
		for ; i < len(slots); i++ {
			picks[i]++
			if picks[i] < len(slots[i].members) {
				break
			}
			picks[i] = 0
		}
		if i == len(slots) {
			break
		}
	}

	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*core.Answer, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out, nil
}
