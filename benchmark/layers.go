package main

import (
	"time"

	"idlog/internal/analysis"
	"idlog/internal/ast"
	"idlog/internal/choice"
	"idlog/internal/core"
	"idlog/internal/parser"
	"idlog/internal/relation"
)

// Layer replay: the traced pass calls each layer's public functions
// itself, from outside, around the same inputs the surface call used.
// Nothing inside the program is instrumented.

// analyze is the parser → (choice translation) → analysis pipeline that
// idlog.Parse runs, kept here so the replay holds the analysis.Info that
// core.Eval takes.
func analyze(src string) (*analysis.Info, error) {
	prog, err := parser.Program(src)
	if err != nil {
		return nil, err
	}
	if prog.HasChoice() {
		if prog, err = choice.Translate(prog); err != nil {
			return nil, err
		}
	}
	return analysis.Analyze(prog)
}

// replayGoalParse replays the parse half of Program.Prepare: the goal
// text becomes the body of a wrapper clause, and the answer clause
// ans(V1, …, Vn) :- goal is returned, the goal's variables in order of
// first appearance.
func replayGoalParse(t *tracer, c *layerCounters, goal string) (*ast.Clause, error) {
	src := "query_wrapper_head :- " + goal + "."
	var wrapped *ast.Clause
	var err error
	t.in("parser.clause", func() { wrapped, err = parser.Clause(src) })
	if err != nil {
		return nil, err
	}
	c.parsedBytes += len(src)
	head := &ast.Atom{Pred: "ans"}
	for _, v := range ast.ClauseVars(&ast.Clause{Head: &ast.Atom{Pred: "x"}, Body: wrapped.Body}) {
		head.Args = append(head.Args, v)
	}
	return &ast.Clause{Head: head, Body: wrapped.Body}, nil
}

// layerCounters collects, during the traced pass only, the counts that
// spans cannot carry. The traced pass has one client, so plain fields do.
type layerCounters struct {
	tracing     bool
	stats       core.Stats
	parsedBytes int
	// containerTime is, per layer, time inside that layer's spans that
	// belongs to a layer below and is replayed there: the self-time
	// table takes it off.
	containerTime map[string]time.Duration
}

func (c *layerCounters) counters() *layerCounters { return c }

func (c *layerCounters) startCounters() { c.tracing = true }

// beginTrace and layerMetrics are the defaults for workloads whose
// traced pass needs no state of its own.
func (c *layerCounters) beginTrace() error { c.startCounters(); return nil }

func (c *layerCounters) layerMetrics(*tracer) (map[string]float64, error) { return nil, nil }

// addStats accumulates the surface calls' evaluation counters.
func (c *layerCounters) addStats(s core.Stats) {
	if c.tracing {
		c.stats.Add(s)
	}
}

// counterMetrics turns the collected counts into layer metrics. The
// core counts are totals over the traced operations' surface calls; for
// one seed and one build they repeat exactly.
func (c *layerCounters) counterMetrics(t *tracer) map[string]float64 {
	m := map[string]float64{
		"core_derivations":             float64(c.stats.Derivations),
		"core_inserted":                float64(c.stats.Inserted),
		"core_scanned":                 float64(c.stats.TuplesScanned),
		"core_iterations":              float64(c.stats.Iterations),
		"core_id_relations":            float64(c.stats.IDRelations),
		"core_useful_derivation_ratio": ratio(float64(c.stats.Inserted), float64(c.stats.Derivations)),
		"core_scanned_per_inserted":    ratio(float64(c.stats.TuplesScanned), float64(c.stats.Inserted)),
	}
	var parse time.Duration
	for _, d := range t.perOp("parser") {
		parse += d
	}
	if parse > 0 {
		m["parser_mb_per_s"] = float64(c.parsedBytes) / 1e6 / parse.Seconds()
	}
	return m
}

// replayEval replays one evaluation through core.Eval, then the
// relation-layer work Eval did inside: each ID-relation the strata need
// is materialized again with the same oracle and bound, and (when the
// operation starts from an unindexed database, fresh) the first probe's
// index build on a clone of each input relation. Eval cannot be opened
// from outside, so those spans are attributed to the core.eval span as
// its children although they run after it: core's self time is the Eval
// span minus them.
func replayEval(t *tracer, info *analysis.Info, db *core.Database, opts core.Options, fresh bool) (*core.Result, error) {
	var res *core.Result
	var err error
	t.in("core.eval", func() { res, err = core.Eval(info, db, opts) })
	if err != nil {
		return nil, err
	}
	eval := len(t.spans) - 1
	oracle := opts.Oracle
	if oracle == nil {
		oracle = relation.SortedOracle{}
	}
	for _, s := range info.Strata {
		for _, need := range s.IDNeeds {
			base := res.Relation(need.Pred)
			if base == nil {
				continue
			}
			t.in("relation.idmat", func() {
				_, err = relation.MaterializeIDBounded(base, need.Key(), need.Group, oracle, need.Bound)
			})
			if err != nil {
				return nil, err
			}
			t.adopt(eval, len(t.spans)-1)
		}
	}
	if fresh {
		for p := range info.EDB {
			if r := db.Relation(p); r != nil && r.Len() > 0 {
				indexBuild(t, "relation.index_build", r)
				t.adopt(eval, len(t.spans)-1)
			}
		}
	}
	return res, nil
}

// indexBuild times the first probe of a fresh clone of r on its first
// column, which builds the secondary index.
func indexBuild(t *tracer, name string, r *relation.Relation) {
	clone := r.DeepClone()
	key := r.At(0)[:1]
	t.in(name, func() { clone.Probe([]int{0}, key) })
}

// replayEvalDiagnostics adds the measurements that are about the
// evaluation but not part of it: the same evaluation forced sequential
// (for core_parallel_speedup), core.ExplainPlan, and an index build on
// a fresh clone of the largest input relation. They are "diag" spans
// and stay out of the self-time table.
func replayEvalDiagnostics(t *tracer, info *analysis.Info, db *core.Database, opts core.Options) error {
	var err error
	seq := opts
	seq.Parallelism = 1
	t.in("diag.core_seq_eval", func() { _, err = core.Eval(info, db, seq) })
	if err != nil {
		return err
	}
	t.in("diag.core_default_eval", func() { _, err = core.Eval(info, db, opts) })
	if err != nil {
		return err
	}
	t.in("diag.core_explain_plan", func() { _, err = core.ExplainPlan(info, db, opts) })
	if err != nil {
		return err
	}
	var largest *relation.Relation
	for p := range info.EDB {
		if r := db.Relation(p); r != nil && (largest == nil || r.Len() > largest.Len()) {
			largest = r
		}
	}
	if largest != nil && largest.Len() > 0 {
		indexBuild(t, "diag.relation_index_build", largest)
	}
	return nil
}
