package idlog

// Chaos suite: deterministic fault injection and resource-budget
// boundary tests for the governance layer. The engine's fault points
// (fault.CoreDerive, fault.CoreStratum, fault.RelationOracle) are armed
// on a registry handed to the unexported withFaults option, so this
// file stays in package idlog.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"idlog/internal/fault"
)

// armed returns a fresh registry with f armed on point, as a run
// option.
func armed(point string, f fault.Fault) Option {
	r := fault.New()
	r.Arm(point, f)
	return withFaults(r)
}

// employeeDB builds the emp(Name, Dept) workload of the paper's running
// examples: depts departments with perDept employees each.
func employeeDB(depts, perDept int) *Database {
	db := NewDatabase()
	for d := 0; d < depts; d++ {
		for e := 0; e < perDept; e++ {
			_ = db.Add("emp", Strs(fmt.Sprintf("emp%03d_%04d", d, e), fmt.Sprintf("dept%03d", d)))
		}
	}
	return db
}

// chainProg is the E6-style transitive-closure kernel.
func chainProg(t *testing.T) *Program {
	t.Helper()
	prog, err := Parse(`
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func chainDB(t *testing.T, n int) *Database {
	t.Helper()
	db := NewDatabase()
	for i := int64(0); i < int64(n); i++ {
		if err := db.Add("e", Ints(i, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// stratProg has three strata: tc, then its negation, then a projection.
func stratProg(t *testing.T) *Program {
	t.Helper()
	prog, err := Parse(`
		node(X) :- e(X, Y).
		node(Y) :- e(X, Y).
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
		sep(X, Y) :- node(X), node(Y), not tc(X, Y).
		sep_from(X) :- sep(X, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// e1Prog is the paper's flagship sampling query (E1): two employees per
// department via the grouped ID-literal emp[2].
func e1Prog(t *testing.T) *Program {
	t.Helper()
	prog, err := Parse(`select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.`)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// wantCode asserts err is a typed *Error carrying code.
func wantCode(t *testing.T, err error, code ErrorCode) *Error {
	t.Helper()
	if err == nil {
		t.Fatalf("expected a %v error, got nil", code)
	}
	var ie *Error
	if !errors.As(err, &ie) {
		t.Fatalf("error %v (%T) is not a typed *idlog.Error", err, err)
	}
	if ie.Code != code {
		t.Fatalf("error code = %v, want %v (err: %v)", ie.Code, code, err)
	}
	return ie
}

// wantPartial asserts res is a well-formed partial result for err.
func wantPartial(t *testing.T, res *Result, err error) {
	t.Helper()
	if res == nil {
		t.Fatalf("tripped run returned a nil Result (err: %v)", err)
	}
	if !res.Incomplete {
		t.Fatalf("tripped run's Result not marked Incomplete (err: %v)", err)
	}
	if res.Err == nil {
		t.Fatalf("partial Result.Err is nil (err: %v)", err)
	}
}

// countIDB sums the derived tuples of prog's output predicates in res.
func countIDB(prog *Program, res *Result) int {
	n := 0
	for _, p := range prog.OutputPredicates() {
		if r := res.Relation(p); r != nil {
			n += r.Len()
		}
	}
	return n
}

// subsetOf asserts every output tuple of partial also appears in full.
func subsetOf(t *testing.T, prog *Program, partial, full *Result) {
	t.Helper()
	for _, p := range prog.OutputPredicates() {
		pr := partial.Relation(p)
		if pr == nil {
			continue
		}
		fr := full.Relation(p)
		if fr == nil {
			t.Fatalf("partial model has %s but the full model does not", p)
		}
		for _, tup := range pr.Tuples() {
			if !fr.Contains(tup) {
				t.Fatalf("partial model tuple %s%v not in the full model: not a sound prefix", p, tup)
			}
		}
	}
}

func TestChaosCanceledContext(t *testing.T) {
	prog, db := chainProg(t), chainDB(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := prog.EvalContext(ctx, db)
	ie := wantCode(t, err, CodeCanceled)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled-run error %v does not match errors.Is(err, context.Canceled)", err)
	}
	wantPartial(t, res, err)
	if res.CompletedStrata != 0 {
		t.Fatalf("pre-canceled run completed %d strata", res.CompletedStrata)
	}
	if ie.Op != "eval" {
		t.Fatalf("error op = %q, want eval", ie.Op)
	}
}

func TestChaosDeadline(t *testing.T) {
	prog, db := chainProg(t), chainDB(t, 50)

	// Via WithTimeout.
	res, err := prog.Eval(db, WithTimeout(time.Nanosecond))
	wantCode(t, err, CodeDeadlineExceeded)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout error %v does not match errors.Is(err, context.DeadlineExceeded)", err)
	}
	wantPartial(t, res, err)

	// Via a context deadline.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = prog.EvalContext(ctx, db)
	wantCode(t, err, CodeDeadlineExceeded)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ctx-deadline error %v does not match errors.Is", err)
	}
}

func TestChaosCancelAtStratum(t *testing.T) {
	prog, db := stratProg(t), chainDB(t, 10)
	full, err := prog.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	for stratum := 0; stratum < prog.Strata(); stratum++ {
		res, err := prog.Eval(db, armed(fault.CoreStratum, fault.Fault{After: stratum, Count: 1}))
		wantCode(t, err, CodeCanceled)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("stratum %d: %v does not match errors.Is(err, context.Canceled)", stratum, err)
		}
		wantPartial(t, res, err)
		if res.CompletedStrata != stratum {
			t.Fatalf("canceled at stratum %d but CompletedStrata = %d", stratum, res.CompletedStrata)
		}
		subsetOf(t, prog, res, full)
	}
	// Canceling past the last stratum never fires: the run completes.
	res, err := prog.Eval(db, armed(fault.CoreStratum, fault.Fault{After: prog.Strata(), Count: 1}))
	if err != nil || res.Incomplete {
		t.Fatalf("cancel beyond the last stratum tripped: %v", err)
	}
}

func TestChaosInjectedPanic(t *testing.T) {
	prog, db := chainProg(t), chainDB(t, 50)
	res, err := prog.Eval(db, armed(fault.CoreDerive, fault.Fault{After: 40}))
	ie := wantCode(t, err, CodeInternal)
	if !strings.Contains(ie.Error(), "stratum") || !strings.Contains(ie.Error(), "tc(") {
		t.Fatalf("internal error lacks stratum/clause context: %v", ie)
	}
	wantPartial(t, res, err)
}

func TestChaosOracleFault(t *testing.T) {
	prog := e1Prog(t)
	db := employeeDB(4, 25)
	boom := errors.New("simulated oracle failure")
	res, err := prog.Eval(db, WithSeed(7), armed(fault.RelationOracle, fault.Fault{Count: 1, Err: boom}))
	wantCode(t, err, CodeInternal)
	if !errors.Is(err, boom) {
		t.Fatalf("oracle fault cause lost: %v", err)
	}
	wantPartial(t, res, err)
	if n := countIDB(prog, res); n != 0 {
		t.Fatalf("oracle failed before any derivation, yet %d tuples derived", n)
	}
}

// TestChaosLiveViewApply arms the engine's fault points on a live
// view's maintenance pass. The update deletes and inserts an edge, so
// the pass runs deletion, insertion propagation and, since sep reads tc
// through negation, a recomputation from sep's stratum. core.derive is
// swept over every derivation of the pass: each firing surfaces as
// CodeInternal naming the clause, and the stale view, once rebuilt,
// matches Eval and keeps maintaining. core.stratum is swept over every
// stratum the pass enters.
func TestChaosLiveViewApply(t *testing.T) {
	prog, db := stratProg(t), chainDB(t, 10).Freeze()
	ins := []Fact{{Pred: "e", Tuple: Ints(10, 11)}}
	del := []Fact{{Pred: "e", Tuple: Ints(4, 5)}}
	recovered := func(lv *LiveView) {
		t.Helper()
		if !lv.Stale() {
			t.Fatal("failed Apply left the view fresh")
		}
		if err := lv.Rebuild(lv.Database()); err != nil {
			t.Fatal(err)
		}
		assertViewIsRecompute(t, prog, lv)
		if _, _, err := lv.Apply(del, ins); err != nil {
			t.Fatal(err)
		}
		assertViewIsRecompute(t, prog, lv)
	}
	clauses := map[string]bool{}
	for after := 0; ; after++ {
		lv, err := prog.NewLiveView(db)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = lv.Apply(ins, del, armed(fault.CoreDerive, fault.Fault{After: after}))
		if err == nil {
			assertViewIsRecompute(t, prog, lv)
			break
		}
		ie := wantCode(t, err, CodeInternal)
		_, clause, _ := strings.Cut(ie.Error(), "(clause ")
		clauses[strings.SplitN(clause, "(", 2)[0]] = true
		if after > 1000 {
			t.Fatalf("core.derive still fires after %d derivations", after)
		}
		recovered(lv)
	}
	// The sweep reached deletion and insertion of tc and the recomputed
	// strata above it.
	for _, head := range []string{"tc", "sep", "sep_from"} {
		if !clauses[head] {
			t.Errorf("no core.derive firing in a %s clause (fired in %v)", head, clauses)
		}
	}

	// core.stratum cancels the pass on entering tc's stratum, then on
	// entering each stratum the recomputation covers.
	entries := 0
	for after := 0; ; after++ {
		lv, err := prog.NewLiveView(db)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = lv.Apply(ins, del, armed(fault.CoreStratum, fault.Fault{After: after, Count: 1}))
		if err == nil {
			break
		}
		wantCode(t, err, CodeCanceled)
		recovered(lv)
		entries++
	}
	if entries != prog.Strata() {
		t.Errorf("core.stratum fired on %d stratum entries, want %d", entries, prog.Strata())
	}
}

// TestChaosLiveViewNamesStratum checks that an internal error from a
// live view's insertion propagation names the stratum maintained: reach
// is in stratum 1, and loop is not changed, so no recomputation runs.
func TestChaosLiveViewNamesStratum(t *testing.T) {
	prog := mustParse(t, `
		loop(X) :- l(X, X).
		reach(X, Y) :- e(X, Y), not loop(X).
		reach(X, Z) :- reach(X, Y), e(Y, Z).
	`)
	lv, err := prog.NewLiveView(chainDB(t, 5).Freeze())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = lv.Apply([]Fact{{Pred: "e", Tuple: Ints(5, 6)}}, nil, armed(fault.CoreDerive, fault.Fault{}))
	ie := wantCode(t, err, CodeInternal)
	if !strings.Contains(ie.Error(), "panic in stratum 1 (clause reach(") {
		t.Fatalf("internal error does not name stratum 1: %v", ie)
	}
}

// TestChaosEnumerate arms the engine's fault points on an enumeration
// walk, whose runs share one guard: core.derive fires in a later run
// than the first, after one answer, core.stratum and relation.oracle in
// the first.
func TestChaosEnumerate(t *testing.T) {
	prog, err := Parse(`pick(X) :- item[](X, T), T = 0.`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	for _, it := range []string{"a", "b", "c", "d"} {
		if err := db.Add("item", Strs(it)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		opt     Option
		code    ErrorCode
		answers int // found before the fault fired
	}{
		{armed(fault.CoreDerive, fault.Fault{After: 6}), CodeInternal, 1},
		{armed(fault.CoreStratum, fault.Fault{Count: 1}), CodeCanceled, 0},
		{armed(fault.RelationOracle, fault.Fault{Count: 1}), CodeInternal, 0},
	} {
		answers, err := prog.Enumerate(db, []string{"pick"}, tc.opt)
		wantCode(t, err, tc.code)
		if len(answers) != tc.answers {
			t.Fatalf("tripped walk found %d answers, want %d (err: %v)", len(answers), tc.answers, err)
		}
	}
}

// TestChaosDeriveFiresAtExactCount pins core.derive's schedule: After n
// panics once exactly n derivations have completed.
func TestChaosDeriveFiresAtExactCount(t *testing.T) {
	prog, db := chainProg(t), chainDB(t, 50)
	for _, n := range []int{0, 1, 40, 300} {
		res, err := prog.Eval(db, armed(fault.CoreDerive, fault.Fault{After: n}))
		wantCode(t, err, CodeInternal)
		if res.Stats.Derivations != n {
			t.Fatalf("After %d: panicked after %d derivations", n, res.Stats.Derivations)
		}
	}
}

func TestChaosQuery(t *testing.T) {
	prog, db := chainProg(t), chainDB(t, 50)

	// Satellite (a) regression: a goal with zero satisfying bindings
	// exercises the nil answer-relation branch and must not panic.
	qr, err := prog.Query(db, "tc(X, Y), eq(X, 999)")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Holds() || len(qr.Rows) != 0 {
		t.Fatalf("unsatisfiable goal reported bindings: %+v", qr)
	}

	// A canceled query returns the typed error (bindings-so-far when a
	// partial model exists).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	qr, err = prog.QueryContext(ctx, db, "tc(X, Y)")
	wantCode(t, err, CodeCanceled)
	if qr != nil && len(qr.Rows) > 0 {
		full, ferr := prog.Query(db, "tc(X, Y)")
		if ferr != nil {
			t.Fatal(ferr)
		}
		if len(qr.Rows) > len(full.Rows) {
			t.Fatalf("partial query returned more rows than the full query")
		}
	}

	// Malformed goals carry CodeParseError.
	_, err = prog.Query(db, "tc(X,")
	wantCode(t, err, CodeParseError)
}

func TestChaosEnumeratePartial(t *testing.T) {
	prog, err := Parse(`pick(X) :- item[](X, T), T = 0.`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	for _, it := range []string{"a", "b", "c", "d"} {
		if err := db.Add("item", Strs(it)); err != nil {
			t.Fatal(err)
		}
	}
	// The full walk finds 4 answers; a 2-run budget must surface the
	// answers found so far with the typed budget error.
	answers, err := prog.Enumerate(db, []string{"pick"}, WithMaxRuns(2))
	wantCode(t, err, CodeResourceExhausted)
	if len(answers) == 0 {
		t.Fatalf("budget-tripped enumeration discarded its partial answers")
	}
	full, err := prog.Enumerate(db, []string{"pick"})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 4 || len(answers) > len(full) {
		t.Fatalf("answers: partial %d, full %d (want full = 4)", len(answers), len(full))
	}

	// A canceled walk is typed too.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = prog.EnumerateContext(ctx, db, []string{"pick"})
	wantCode(t, err, CodeCanceled)
}

func TestChaosNoGoroutineLeak(t *testing.T) {
	prog, db := chainProg(t), chainDB(t, 30)
	e1, empDB := e1Prog(t), employeeDB(3, 10)
	before := runtime.NumGoroutine()
	for i := 0; i < 25; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, _ = prog.EvalContext(ctx, db)
		_, _ = prog.Eval(db, WithTimeout(time.Nanosecond))
		_, _ = prog.Eval(db, WithMaxDerivations(10))
		_, _ = prog.Eval(db, armed(fault.CoreDerive, fault.Fault{After: 5}))
		_, _ = e1.Eval(empDB, WithSeed(uint64(i)), WithMaxTuples(32))
	}
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines grew from %d to %d across tripped runs", before, after)
	}
}

// TestDerivationBudgetBoundary: the budget fires at EXACTLY the
// configured limit — the partial run performs MaxDerivations
// derivations, not one more — and each partial model is a sound prefix
// of the full one. (Satellite c, E6 kernel.)
func TestDerivationBudgetBoundary(t *testing.T) {
	prog, db := chainProg(t), chainDB(t, 50)
	full, err := prog.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	totalDerivations := full.Stats.Derivations
	for _, limit := range []int{1, 2, 17, 256, 257, 1000, totalDerivations - 1} {
		res, err := prog.Eval(db, WithMaxDerivations(limit))
		wantCode(t, err, CodeResourceExhausted)
		wantPartial(t, res, err)
		if res.Stats.Derivations != limit {
			t.Fatalf("limit %d: run performed %d derivations, want exactly the limit",
				limit, res.Stats.Derivations)
		}
		subsetOf(t, prog, res, full)
	}
	// At or above the run's true cost the budget never fires.
	for _, limit := range []int{totalDerivations, totalDerivations + 1} {
		res, err := prog.Eval(db, WithMaxDerivations(limit))
		if err != nil || res.Incomplete {
			t.Fatalf("limit %d >= total %d still tripped: %v", limit, totalDerivations, err)
		}
	}
}

// TestTupleBudgetBoundary: a tripped run holds exactly MaxTuples
// derived tuples. (Satellite c, E6 kernel — no ID-relations, so every
// reserved tuple is a visible IDB tuple.)
func TestTupleBudgetBoundary(t *testing.T) {
	prog, db := chainProg(t), chainDB(t, 50)
	full, err := prog.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	fullTuples := countIDB(prog, full)
	for _, limit := range []int{1, 2, 64, 100, fullTuples - 1} {
		res, err := prog.Eval(db, WithMaxTuples(limit))
		wantCode(t, err, CodeResourceExhausted)
		wantPartial(t, res, err)
		if got := countIDB(prog, res); got != limit {
			t.Fatalf("limit %d: partial model holds %d tuples, want exactly the limit", limit, got)
		}
		subsetOf(t, prog, res, full)
	}
	res, err := prog.Eval(db, WithMaxTuples(fullTuples))
	if err != nil || res.Incomplete {
		t.Fatalf("limit == model size still tripped: %v", err)
	}
}

// TestTupleBudgetBoundaryE1: with an ID-literal in play the budget
// also accounts the materialized ID-relation rows (one block, whose
// size the bounded materialization of the "N < 2" literal determines),
// then meters derived tuples one by one. (Satellite c, E1 kernel.)
func TestTupleBudgetBoundaryE1(t *testing.T) {
	prog := e1Prog(t)
	db := employeeDB(4, 25) // 100 emp tuples, 8 sampled names
	const seed, sampled = 42, 8
	full, err := prog.Eval(db, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if n := countIDB(prog, full); n != sampled {
		t.Fatalf("full E1 run sampled %d names, want %d", n, sampled)
	}
	idRows := full.IDRelation("emp[1]").Len() // the block charged to the budget
	// Below one ID block the run cannot even materialize emp[2].
	res, err := prog.Eval(db, WithSeed(seed), WithMaxTuples(idRows-1))
	wantCode(t, err, CodeResourceExhausted)
	wantPartial(t, res, err)
	if n := countIDB(prog, res); n != 0 {
		t.Fatalf("run without an ID-relation still derived %d tuples", n)
	}
	// With the block paid for, each extra unit of budget is exactly one
	// more derived tuple in the partial model.
	for k := 0; k < sampled; k++ {
		res, err := prog.Eval(db, WithSeed(seed), WithMaxTuples(idRows+k))
		wantCode(t, err, CodeResourceExhausted)
		wantPartial(t, res, err)
		if got := countIDB(prog, res); got != k {
			t.Fatalf("budget %d+%d: partial model holds %d samples, want exactly %d", idRows, k, got, k)
		}
		subsetOf(t, prog, res, full)
	}
	res, err = prog.Eval(db, WithSeed(seed), WithMaxTuples(idRows+sampled))
	if err != nil || res.Incomplete {
		t.Fatalf("exact-fit budget still tripped: %v", err)
	}
}

// TestTimeoutBoundary: E6 under a timeout that fires mid-run returns a
// sound partial prefix. The instant of the trip is inherently
// non-deterministic, so only soundness — not the cut point — is
// asserted.
func TestTimeoutBoundary(t *testing.T) {
	prog, db := chainProg(t), chainDB(t, 120)
	full, err := prog.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []time.Duration{time.Nanosecond, 50 * time.Microsecond, 200 * time.Microsecond} {
		res, err := prog.Eval(db, WithTimeout(d))
		if err == nil {
			continue // machine fast enough to finish inside d
		}
		wantCode(t, err, CodeDeadlineExceeded)
		wantPartial(t, res, err)
		subsetOf(t, prog, res, full)
	}
}

// TestGovernedSampling: the sampling facade propagates governance and
// typed errors.
func TestGovernedSampling(t *testing.T) {
	db := employeeDB(10, 50)
	spec := SampleSpec{Relation: "emp", Arity: 2, GroupBy: []int{2}, K: 2}
	if _, err := Sample(spec, db, 3); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SampleContext(ctx, spec, db, 3)
	wantCode(t, err, CodeCanceled)
	_, err = SampleContext(context.Background(), spec, db, 3, WithMaxTuples(10))
	wantCode(t, err, CodeResourceExhausted)
}

// TestErrorTaxonomyRendering pins the public error surface: message
// shape, Unwrap chains, and the parse/stratification codes raised
// outside the engine loop.
func TestErrorTaxonomyRendering(t *testing.T) {
	_, err := Parse("p(X :-")
	wantCode(t, err, CodeParseError)

	_, err = Parse(`p(X) :- q(X), not p(X).  q(a).`)
	wantCode(t, err, CodeStratificationError)

	prog, db := chainProg(t), chainDB(t, 50)
	_, err = prog.Eval(db, WithMaxDerivations(3))
	ie := wantCode(t, err, CodeResourceExhausted)
	msg := ie.Error()
	for _, want := range []string{"idlog:", "eval", "resource_exhausted", "derivation budget 3"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q lacks %q", msg, want)
		}
	}
	if fmt.Sprintf("%v", ie.Code) == "" {
		t.Fatalf("ErrorCode has no string form")
	}
}
