package main

import (
	"fmt"
	"time"

	"idlog"
	"idlog/internal/analysis"
	"idlog/internal/ast"
	"idlog/internal/choice"
	"idlog/internal/core"
	"idlog/internal/parser"
	"idlog/internal/relation"
)

// The two in-process batch workloads: Program.Eval is the surface.

const tcSource = "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- tc(X, Z), e(Z, Y).\n"

// batchTC evaluates left-linear transitive closure over a few frozen
// seeded grids, cycled.
type batchTC struct {
	cfg    runConfig
	side   int // grid side
	grids  int
	ops    int
	prog   *idlog.Program
	info   *analysis.Info
	dbs    []*idlog.Database
	reach  [][][]bool // per grid: closure rows
	counts []int
	layerCounters
}

func newBatchTC(cfg runConfig) *batchTC {
	w := &batchTC{cfg: cfg, side: 12, grids: 8, ops: 256}
	if cfg.sizes.smoke {
		w.side, w.grids, w.ops = 6, 2, 20
	}
	return w
}

func (w *batchTC) setup() error {
	rng := subRand(w.cfg.seed, "batch_tc")
	var err error
	if w.prog, err = idlog.Parse(tcSource); err != nil {
		return err
	}
	if w.info, err = analyze(tcSource); err != nil {
		return err
	}
	for g := 0; g < w.grids; g++ {
		es := relabel(rng, gridEdges(structRand(fmt.Sprintf("batch_tc/grid%d", g)), w.side), rng.Perm(w.side*w.side))
		db := idlog.NewDatabase()
		for _, e := range es {
			if err := db.Add("e", idlog.Ints(int64(e.from), int64(e.to))); err != nil {
				return err
			}
		}
		db.Freeze()
		rows := closure(w.side*w.side, es)
		w.dbs = append(w.dbs, db)
		w.reach = append(w.reach, rows)
		w.counts = append(w.counts, countTrue(rows...))
	}
	return nil
}

func (w *batchTC) check(g int, tc *idlog.Relation) error {
	if tc == nil || tc.Len() != w.counts[g] {
		return fmt.Errorf("tc has %d tuples, reference closure %d", relLen(tc), w.counts[g])
	}
	n := w.side * w.side
	for _, t := range tc.Tuples() {
		a, b := t[0].Num, t[1].Num
		if a < 0 || b < 0 || a >= int64(n) || b >= int64(n) || !w.reach[g][a][b] {
			return fmt.Errorf("tc(%d, %d) is not in the reference closure", a, b)
		}
	}
	return nil
}

func (w *batchTC) streams() []*stream {
	return []*stream{{
		name: "eval", clients: 1, n: w.ops, warm: w.ops / 8,
		describe: func(i int) string {
			return fmt.Sprintf("eval tc grid %d %s", i%w.grids, w.dbs[i%w.grids].Relation("e").Fingerprint())
		},
		do: func(i int) (opKind, time.Duration, error) {
			g := i % w.grids
			start := time.Now()
			res, err := w.prog.Eval(w.dbs[g])
			took := time.Since(start)
			if err != nil {
				return kindOp, took, err
			}
			w.addStats(res.Stats)
			return kindOp, took, w.check(g, res.Relation("tc"))
		},
	}}
}

func (w *batchTC) rewind() error          { return nil }
func (w *batchTC) finish() (int, []error) { return 0, nil }
func (w *batchTC) close()                 {}

func (w *batchTC) replay(t *tracer, _ *stream, i int) error {
	db := w.dbs[i%w.grids]
	if _, err := replayEval(t, w.info, db, core.Options{}, false); err != nil {
		return err
	}
	return replayEvalDiagnostics(t, w.info, db, core.Options{})
}

// batchIDLit evaluates three non-recursive ID-literal programs per
// operation under one seeded oracle: Example 4 sampling, a DATALOG^C
// choice program through the Theorem 2 translation, and guess-and-check
// 3-colouring.
type batchIDLit struct {
	cfg               runConfig
	depts, perDept    int
	colNodes, colEdge int
	ops               int
	sources           [3]string
	progs             [3]*idlog.Program
	infos             [3]*analysis.Info
	db                *idlog.Database
	members           map[emp]bool
	graph             []edge
	layerCounters
}

const (
	sampleSource = "select_two(Name, Dept) :- emp[2](Name, Dept, N), N < 2.\n"
	choiceSource = "select_emp(Name, Dept) :- emp(Name, Dept), choice((Dept), (Name)).\n"
	// One colour per node by the tid-0 ID-literal (the guess), then the
	// check: conflict lists monochrome edges, proper holds when there is
	// none.
	colourSource = "col(N, C) :- cand[1](N, C, 0).\n" +
		"conflict(X, Y) :- edge(X, Y), col(X, C), col(Y, C).\n" +
		"bad(yes) :- conflict(X, Y), ok(yes).\n" +
		"proper(yes) :- ok(yes), not bad(yes).\n"
)

func newBatchIDLit(cfg runConfig) *batchIDLit {
	w := &batchIDLit{cfg: cfg, depts: 50, perDept: 100, colNodes: 300, colEdge: 600, ops: 256,
		sources: [3]string{sampleSource, choiceSource, colourSource}}
	if cfg.sizes.smoke {
		w.depts, w.perDept, w.colNodes, w.colEdge, w.ops = 5, 8, 20, 30, 20
	}
	return w
}

func (w *batchIDLit) setup() error {
	rng := subRand(w.cfg.seed, "batch_idlit")
	for i, src := range w.sources {
		var err error
		if w.progs[i], err = idlog.Parse(src); err != nil {
			return err
		}
		if w.infos[i], err = analyze(src); err != nil {
			return err
		}
	}
	db := idlog.NewDatabase()
	w.members = map[emp]bool{}
	for _, r := range empRows(rng, w.depts, w.perDept) {
		w.members[r] = true
		if err := db.Add("emp", idlog.Strs(r.name, r.dept)); err != nil {
			return err
		}
	}
	w.graph = relabel(rng, colourGraph(structRand("batch_idlit/graph"), w.colNodes, w.colEdge), rng.Perm(w.colNodes))
	for _, e := range w.graph {
		if err := db.Add("edge", idlog.Ints(int64(e.from), int64(e.to))); err != nil {
			return err
		}
	}
	for n := 0; n < w.colNodes; n++ {
		for _, c := range []string{"red", "green", "blue"} {
			if err := db.Add("cand", idlog.Tuple{idlog.Int(int64(n)), idlog.Str(c)}); err != nil {
				return err
			}
		}
	}
	if err := db.Add("ok", idlog.Strs("yes")); err != nil {
		return err
	}
	db.Freeze()
	w.db = db
	return nil
}

// oracleSeed is operation i's oracle seed: distinct per operation and
// per run seed.
func (w *batchIDLit) oracleSeed(i int) uint64 { return uint64(w.cfg.seed)<<20 | uint64(i) }

func empRowsOf(r *idlog.Relation) []emp {
	if r == nil {
		return nil
	}
	rows := make([]emp, 0, r.Len())
	for _, t := range r.Tuples() {
		rows = append(rows, emp{t[0].String(), t[1].String()})
	}
	return rows
}

func (w *batchIDLit) check(res [3]*idlog.Result) error {
	if err := checkSample(empRowsOf(res[0].Relation("select_two")), w.members, w.depts, 2); err != nil {
		return err
	}
	if err := checkChoice(empRowsOf(res[1].Relation("select_emp")), w.members, w.depts); err != nil {
		return err
	}
	colour := map[int]string{}
	for _, t := range res[2].Relation("col").Tuples() {
		if _, dup := colour[int(t[0].Num)]; dup {
			return fmt.Errorf("colouring: node %d got two colours", t[0].Num)
		}
		colour[int(t[0].Num)] = t[1].String()
	}
	conflicts := map[edge]bool{}
	for _, t := range res[2].Relation("conflict").Tuples() {
		conflicts[edge{int(t[0].Num), int(t[1].Num)}] = true
	}
	return checkColouring(w.colNodes, w.graph, colour, conflicts, res[2].Relation("proper").Len() == 1)
}

func (w *batchIDLit) streams() []*stream {
	return []*stream{{
		name: "eval", clients: 1, n: w.ops, warm: w.ops / 8,
		describe: func(i int) string { return fmt.Sprintf("eval sample+choice+colour oracle %d", w.oracleSeed(i)) },
		do: func(i int) (opKind, time.Duration, error) {
			var res [3]*idlog.Result
			start := time.Now()
			for p, prog := range w.progs {
				r, err := prog.Eval(w.db, idlog.WithSeed(w.oracleSeed(i)))
				if err != nil {
					return kindOp, time.Since(start), err
				}
				res[p] = r
			}
			took := time.Since(start)
			for _, r := range res {
				w.addStats(r.Stats)
			}
			return kindOp, took, w.check(res)
		},
	}}
}

func (w *batchIDLit) rewind() error          { return nil }
func (w *batchIDLit) finish() (int, []error) { return 0, nil }
func (w *batchIDLit) close()                 {}

func (w *batchIDLit) replay(t *tracer, _ *stream, i int) error {
	opts := core.Options{Oracle: relation.RandomOracle{Seed: w.oracleSeed(i)}}
	for p := range w.progs {
		// The surface call starts from a compiled program; parsing and
		// analysis are replayed to show how small their share would be.
		var prog *ast.Program
		var info *analysis.Info
		var err error
		t.in("parser.program", func() { prog, err = parser.Program(w.sources[p]) })
		if err != nil {
			return err
		}
		w.parsedBytes += len(w.sources[p])
		if prog.HasChoice() {
			t.in("analysis.choice_translate", func() { prog, err = choice.Translate(prog) })
			if err != nil {
				return err
			}
		}
		t.in("analysis.analyze", func() { info, err = analysis.Analyze(prog) })
		if err != nil {
			return err
		}
		if _, err := replayEval(t, info, w.db, opts, false); err != nil {
			return err
		}
	}
	return replayEvalDiagnostics(t, w.infos[0], w.db, opts)
}

func relLen(r *idlog.Relation) int {
	if r == nil {
		return -1
	}
	return r.Len()
}
