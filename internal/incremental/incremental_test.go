package incremental

import (
	"fmt"
	"math/rand"
	"testing"

	"idlog/internal/adorn"
	"idlog/internal/analysis"
	"idlog/internal/choice"
	"idlog/internal/core"
	"idlog/internal/guard"
	"idlog/internal/parser"
	"idlog/internal/relation"
	"idlog/internal/value"
)

func mustInfo(t *testing.T, src string) *analysis.Info {
	t.Helper()
	prog, err := parser.Program(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err = choice.Translate(prog)
	if err != nil {
		t.Fatalf("choice: %v", err)
	}
	info, err := analysis.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return info
}

// checkEquiv asserts the view equals a from-scratch recompute over its
// current snapshot under the same options.
func checkEquiv(t *testing.T, label string, v *View, opts core.Options) {
	t.Helper()
	res, err := core.Eval(v.info, v.Database(), opts)
	if err != nil {
		t.Fatalf("%s: recompute: %v", label, err)
	}
	if ok, diff := v.Equal(res); !ok {
		t.Fatalf("%s: view diverged from recompute: %s", label, diff)
	}
}

func facts(pred string, tuples ...value.Tuple) []core.Fact {
	out := make([]core.Fact, len(tuples))
	for i, tp := range tuples {
		out[i] = core.Fact{Pred: pred, Tuple: tp}
	}
	return out
}

// TestIncrementalTransitiveClosure exercises the pure-delta and DRed
// paths on the classic recursive workload, asserting tuple-for-tuple
// equivalence with recompute after every step.
func TestIncrementalTransitiveClosure(t *testing.T) {
	info := mustInfo(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	db := core.NewDatabase()
	for i := 0; i < 20; i++ {
		_ = db.Add("e", value.Tuple{value.Int(int64(i)), value.Int(int64(i + 1))})
	}
	db.Freeze()
	opts := core.Options{}
	v, err := NewView(info, db, opts)
	if err != nil {
		t.Fatal(err)
	}

	steps := []struct {
		label    string
		ins, del []core.Fact
	}{
		{"insert shortcut edge", facts("e", value.Tuple{value.Int(3), value.Int(10)}), nil},
		{"insert branch", facts("e", value.Tuple{value.Int(5), value.Int(30)}), nil},
		{"delete chain edge", nil, facts("e", value.Tuple{value.Int(7), value.Int(8)})},
		{"delete shortcut", nil, facts("e", value.Tuple{value.Int(3), value.Int(10)})},
		{"mixed batch", facts("e", value.Tuple{value.Int(7), value.Int(8)}),
			facts("e", value.Tuple{value.Int(0), value.Int(1)})},
		{"no-op delete", nil, facts("e", value.Tuple{value.Int(99), value.Int(100)})},
	}
	for _, s := range steps {
		up, err := func() (UpdateStats, error) {
			_, up, err := v.ApplyFacts(s.ins, s.del, nil)
			return up, err
		}()
		if err != nil {
			t.Fatalf("%s: %v", s.label, err)
		}
		if up.FallbackFrom != -1 {
			t.Fatalf("%s: unexpected fallback from stratum %d", s.label, up.FallbackFrom)
		}
		checkEquiv(t, s.label, v, opts)
	}
}

// TestIncrementalRederivation forces the DRed rederive path: a tuple
// loses one derivation but keeps another.
func TestIncrementalRederivation(t *testing.T) {
	info := mustInfo(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	db := core.NewDatabase()
	// Diamond: a->b->d and a->c->d, so tc(a,d) has two derivations.
	for _, e := range [][2]string{{"a", "b"}, {"b", "d"}, {"a", "c"}, {"c", "d"}, {"d", "e"}} {
		_ = db.Add("e", value.Strs(e[0], e[1]))
	}
	db.Freeze()
	opts := core.Options{}
	v, err := NewView(info, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, up, err := v.ApplyFacts(nil, facts("e", value.Strs("b", "d")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if up.Rederived == 0 {
		t.Fatalf("expected rederivations, got stats %+v", up)
	}
	if !v.Relation("tc").Contains(value.Strs("a", "d")) {
		t.Fatal("tc(a,d) lost despite surviving derivation via c")
	}
	checkEquiv(t, "diamond delete", v, opts)
}

// TestFallbackBoundary checks the documented incremental/fallback rule:
// negation or ID-literals over a CHANGED predicate force recomputation
// of that stratum and above; over unchanged predicates the update stays
// incremental.
func TestFallbackBoundary(t *testing.T) {
	src := `
		reach(X) :- start(X).
		reach(Y) :- reach(X), e(X, Y).
		unreached(X) :- node(X), not reach(X).
	`
	info := mustInfo(t, src)
	db := core.NewDatabase()
	for i := 0; i < 10; i++ {
		_ = db.Add("e", value.Strs(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)))
		_ = db.Add("node", value.Strs(fmt.Sprintf("n%d", i)))
	}
	_ = db.Add("node", value.Strs("n10"))
	_ = db.Add("node", value.Strs("island"))
	_ = db.Add("start", value.Strs("n0"))
	db.Freeze()
	opts := core.Options{}
	v, err := NewView(info, db, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Changing e changes reach, which the unreached stratum negates:
	// fallback from that stratum.
	_, up, err := v.ApplyFacts(facts("e", value.Strs("n3", "island")), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if up.FallbackFrom < 0 {
		t.Fatalf("negation over changed reach must fall back, got %+v", up)
	}
	checkEquiv(t, "neg fallback", v, opts)
	if v.Relation("unreached").Contains(value.Strs("island")) {
		t.Fatal("island still unreached after adding edge to it")
	}

	// Changing only node (read positively by the top stratum, never
	// negated; reach does not change) stays incremental.
	_, up, err = v.ApplyFacts(facts("node", value.Strs("lonely")), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if up.FallbackFrom != -1 {
		t.Fatalf("node-only change should be incremental, got fallback from %d", up.FallbackFrom)
	}
	if !v.Relation("unreached").Contains(value.Strs("lonely")) {
		t.Fatal("new unreachable node not derived")
	}
	checkEquiv(t, "node insert incremental", v, opts)

	// Deleting a node tuple exercises DRed through the negation stratum
	// (still incremental: the negated predicate reach is unchanged).
	_, up, err = v.ApplyFacts(nil, facts("node", value.Strs("lonely")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if up.FallbackFrom != -1 {
		t.Fatalf("node-only delete should be incremental, got fallback from %d", up.FallbackFrom)
	}
	checkEquiv(t, "node delete incremental", v, opts)
}

// paperExamples mirrors the Example 1–8 suite used across the repo
// (Examples 7–8 are derived from 6 via the §4 optimize chain below).
var paperExamples = []struct {
	name string
	src  string
}{
	{"ex1-man", `
		sex_guess(X, male) :- person(X).
		sex_guess(X, female) :- person(X).
		man(X) :- sex_guess[1](X, male, 1).
	`},
	{"ex2-man-woman", `
		sex_guess(X, male) :- person(X).
		sex_guess(X, female) :- person(X).
		man(X) :- sex_guess[1](X, male, 1).
		woman(X) :- sex_guess[1](X, female, 1).
	`},
	{"ex3-dl-contrast", `
		guess(X, in) :- person(X).
		guess(X, out) :- person(X).
		chosen(X) :- guess[1](X, in, 1).
	`},
	{"ex4-choice", `
		pick(N, D) :- emp(N, D), choice((D), (N)).
	`},
	{"ex5-sampling", `
		select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.
	`},
	{"ex6-reach-source", `
		q(X) :- a(X, Y).
		a(X, Y) :- p(X, Z), a(Z, Y).
		a(X, Y) :- p(X, Y).
	`},
}

func paperDB() *core.Database {
	db := core.NewDatabase()
	for i := 0; i < 6; i++ {
		_ = db.Add("person", value.Strs(fmt.Sprintf("p%02d", i)))
	}
	for d := 0; d < 4; d++ {
		for e := 0; e < 5; e++ {
			_ = db.Add("emp", value.Strs(fmt.Sprintf("e%d_%d", d, e), fmt.Sprintf("dept%d", d)))
		}
	}
	for i := 0; i < 30; i++ {
		_ = db.Add("p", value.Strs(fmt.Sprintf("v%03d", i), fmt.Sprintf("v%03d", i+1)))
		if i%5 == 0 {
			_ = db.Add("p", value.Strs(fmt.Sprintf("v%03d", i), fmt.Sprintf("w%03d", i)))
		}
	}
	return db
}

// TestIncrementalEquivalencePaperExamples runs insert/delete sequences
// through views of the paper's Examples 1–8 and asserts equivalence
// with recompute after every step. The ID-bearing examples exercise
// the fallback path (their strata read changed predicates through
// ID-literals); Example 6 and its optimized form exercise the
// incremental path. The shared oracle seed makes recompute and
// fallback draw identical ID assignments.
func TestIncrementalEquivalencePaperExamples(t *testing.T) {
	var infos []struct {
		name string
		info *analysis.Info
	}
	for _, ex := range paperExamples {
		infos = append(infos, struct {
			name string
			info *analysis.Info
		}{ex.name, mustInfo(t, ex.src)})
	}
	// Examples 7–8: the §4 rewrite of Example 6, derived as the paper
	// derives it.
	prog, err := parser.Program(paperExamples[5].src)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := adorn.Optimize(prog, "q")
	if err != nil {
		t.Fatal(err)
	}
	optInfo, err := analysis.Analyze(opt)
	if err != nil {
		t.Fatal(err)
	}
	infos = append(infos, struct {
		name string
		info *analysis.Info
	}{"ex7-8-optimized", optInfo})

	steps := []struct {
		label    string
		ins, del []core.Fact
	}{
		{"ins person+emp+edge", append(append(
			facts("person", value.Strs("p99")),
			facts("emp", value.Strs("e9_9", "dept2"))...),
			facts("p", value.Strs("v005", "v020"))...), nil},
		{"del person", nil, facts("person", value.Strs("p02"))},
		{"del emp", nil, facts("emp", value.Strs("e1_1", "dept1"))},
		{"del edge", nil, facts("p", value.Strs("v010", "v011"))},
		{"mixed", facts("p", value.Strs("v010", "v011")),
			facts("p", value.Strs("v000", "v001"))},
	}

	for _, ex := range infos {
		opts := core.Options{Oracle: relation.RandomOracle{Seed: 42}}
		v, err := NewView(ex.info, paperDB().Freeze(), opts)
		if err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		for _, s := range steps {
			// Drop mutations to predicates this program doesn't read:
			// Database.Apply would accept them, but the step labels are
			// about the program's own EDB.
			var ins, del []core.Fact
			for _, f := range s.ins {
				if ex.info.EDB[f.Pred] {
					ins = append(ins, f)
				}
			}
			for _, f := range s.del {
				if ex.info.EDB[f.Pred] {
					del = append(del, f)
				}
			}
			if len(ins) == 0 && len(del) == 0 {
				continue
			}
			if _, _, err := v.ApplyFacts(ins, del, nil); err != nil {
				t.Fatalf("%s %s: %v", ex.name, s.label, err)
			}
			checkEquiv(t, ex.name+" "+s.label, v, opts)
		}
	}
}

// TestIncrementalPropertyRandom is the fuzz/property test: random
// insert/delete interleavings over stratified programs, the view must
// stay tuple-for-tuple identical to recompute. Each program runs two
// random histories, each from a fresh view over the initial database.
func TestIncrementalPropertyRandom(t *testing.T) {
	programs := []struct {
		name string
		src  string
	}{
		{"tc", `
			tc(X, Y) :- e(X, Y).
			tc(X, Y) :- e(X, Z), tc(Z, Y).
		`},
		{"reach-neg", `
			reach(X) :- start(X).
			reach(Y) :- reach(X), e(X, Y).
			unreached(X) :- node(X), not reach(X).
		`},
		{"two-hop-builtin", `
			hop2(X, Y, S) :- e(X, Z), e(Z, Y), add(X, Y, S).
		`},
	}
	const nodes = 12
	for _, pr := range programs {
		pr := pr
		t.Run(pr.name, func(t *testing.T) {
			info := mustInfo(t, pr.src)
			rng := rand.New(rand.NewSource(int64(len(pr.name)) * 7919))
			db := core.NewDatabase()
			for i := 0; i < nodes; i++ {
				_ = db.Add("e", value.Tuple{value.Int(int64(i)), value.Int(int64((i + 1) % nodes))})
				if info.EDB["node"] {
					_ = db.Add("node", value.Tuple{value.Int(int64(i))})
				}
			}
			if info.EDB["start"] {
				_ = db.Add("start", value.Tuple{value.Int(0)})
			}
			db.Freeze()

			for pass := 0; pass < 2; pass++ {
				opts := core.Options{}
				v, err := NewView(info, db, opts)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 40; step++ {
					var ins, del []core.Fact
					for n := rng.Intn(3) + 1; n > 0; n-- {
						tup := value.Tuple{value.Int(int64(rng.Intn(nodes))), value.Int(int64(rng.Intn(nodes)))}
						if rng.Intn(2) == 0 {
							ins = append(ins, core.Fact{Pred: "e", Tuple: tup})
						} else {
							del = append(del, core.Fact{Pred: "e", Tuple: tup})
						}
					}
					if info.EDB["node"] && rng.Intn(4) == 0 {
						tup := value.Tuple{value.Int(int64(rng.Intn(nodes * 2)))}
						if rng.Intn(2) == 0 {
							ins = append(ins, core.Fact{Pred: "node", Tuple: tup})
						} else {
							del = append(del, core.Fact{Pred: "node", Tuple: tup})
						}
					}
					if _, _, err := v.ApplyFacts(ins, del, nil); err != nil {
						t.Fatalf("step %d (pass %d): %v", step, pass, err)
					}
					checkEquiv(t, fmt.Sprintf("%s step %d pass %d", pr.name, step, pass), v, opts)
				}
			}
		})
	}
}

// TestViewGuardBudgetAndRebuild: a budget-tripped Apply leaves the view
// stale; Rebuild restores consistency.
func TestViewGuardBudgetAndRebuild(t *testing.T) {
	info := mustInfo(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	db := core.NewDatabase()
	for i := 0; i < 40; i++ {
		_ = db.Add("e", value.Tuple{value.Int(int64(i)), value.Int(int64(i + 1))})
	}
	db.Freeze()
	opts := core.Options{}
	v, err := NewView(info, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Closing the chain into a cycle derives ~n^2 new tuples: far past
	// the budget.
	g := guard.New(nil, guard.Limits{MaxDerivations: 5})
	_, _, err = v.ApplyFacts(facts("e", value.Tuple{value.Int(40), value.Int(0)}), nil, g)
	if err == nil {
		t.Fatal("budgeted apply succeeded against a 5-derivation limit")
	}
	if !v.Stale() {
		t.Fatal("failed apply did not mark the view stale")
	}
	if _, _, err := v.ApplyFacts(nil, nil, nil); err == nil {
		t.Fatal("stale view accepted another apply")
	}
	if err := v.Rebuild(v.Database()); err != nil {
		t.Fatal(err)
	}
	if v.Stale() {
		t.Fatal("rebuild left the view stale")
	}
	checkEquiv(t, "after rebuild", v, opts)
	// And the view works again.
	if _, _, err := v.ApplyFacts(facts("e", value.Tuple{value.Int(5), value.Int(25)}), nil, nil); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, "post-rebuild apply", v, opts)
}

// TestMutateDerivedRelationRejected: IDB predicates are not mutable.
func TestMutateDerivedRelationRejected(t *testing.T) {
	info := mustInfo(t, `tc(X, Y) :- e(X, Y).`)
	db := core.NewDatabase()
	_ = db.Add("e", value.Strs("a", "b"))
	db.Freeze()
	v, err := NewView(info, db, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.ApplyFacts(facts("tc", value.Strs("x", "y")), nil, nil); err == nil {
		t.Fatal("mutating derived relation tc accepted")
	}
}

// TestIncrementalPlannerInterleaved drives a view through a random
// interleaving of insertions and deletions, asserting after every step
// that it equals a from-scratch recompute. This pins the planner's
// delta-first variants (used by Overdelete and Propagate) and its
// head-bound rederivation probes across DRed and propagation paths.
func TestIncrementalPlannerInterleaved(t *testing.T) {
	info := mustInfo(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
		blocked(X) :- node(X), not tc(X, X).
		pair(X, S) :- tc(X, Y), node(Y), add(X, Y, S).
	`)
	const nodes = 10
	rng := rand.New(rand.NewSource(42))
	db := core.NewDatabase()
	for i := 0; i < nodes; i++ {
		_ = db.Add("e", value.Tuple{value.Int(int64(i)), value.Int(int64((i + 3) % nodes))})
		_ = db.Add("node", value.Tuple{value.Int(int64(i))})
	}
	db.Freeze()

	opts := core.Options{}
	v, err := NewView(info, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 60; step++ {
		var ins, del []core.Fact
		for n := rng.Intn(3) + 1; n > 0; n-- {
			tup := value.Tuple{value.Int(int64(rng.Intn(nodes))), value.Int(int64(rng.Intn(nodes)))}
			if rng.Intn(2) == 0 {
				ins = append(ins, core.Fact{Pred: "e", Tuple: tup})
			} else {
				del = append(del, core.Fact{Pred: "e", Tuple: tup})
			}
		}
		if _, _, err := v.ApplyFacts(ins, del, nil); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkEquiv(t, fmt.Sprintf("step %d", step), v, opts)
	}
}
