package analysis

import (
	"strings"
	"testing"

	"idlog/internal/ast"
	"idlog/internal/parser"
)

func analyze(t *testing.T, src string) *Info {
	t.Helper()
	prog, err := parser.Program(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return info
}

func analyzeErr(t *testing.T, src string) error {
	t.Helper()
	prog, err := parser.Program(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Analyze(prog)
	if err == nil {
		t.Fatalf("expected analysis error for %q", src)
	}
	return err
}

func TestEDBAndIDBClassification(t *testing.T) {
	info := analyze(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	if !info.EDB["e"] || info.EDB["tc"] {
		t.Fatalf("EDB = %v", info.EDB)
	}
	if !info.IDB["tc"] || info.IDB["e"] {
		t.Fatalf("IDB = %v", info.IDB)
	}
	if info.Arity["tc"] != 2 || info.Arity["e"] != 2 {
		t.Fatalf("arity = %v", info.Arity)
	}
}

func TestSingleStratumRecursion(t *testing.T) {
	info := analyze(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	if len(info.Strata) != 1 {
		t.Fatalf("strata = %d, want 1", len(info.Strata))
	}
	s := info.Strata[0]
	if len(s.Clauses) != 2 {
		t.Fatalf("stratum clauses = %d", len(s.Clauses))
	}
	rec := 0
	for _, oc := range s.Clauses {
		if oc.Recursive {
			rec++
		}
	}
	if rec != 1 {
		t.Fatalf("recursive clause count = %d, want 1", rec)
	}
}

func TestNegationForcesNewStratum(t *testing.T) {
	info := analyze(t, `
		reach(X) :- source(X).
		reach(Y) :- reach(X), e(X, Y).
		unreach(X) :- node(X), not reach(X).
	`)
	if len(info.Strata) != 2 {
		t.Fatalf("strata = %d, want 2", len(info.Strata))
	}
	if info.StratumOf["reach"] != 0 || info.StratumOf["unreach"] != 1 {
		t.Fatalf("StratumOf = %v", info.StratumOf)
	}
}

func TestUnstratifiedNegationRejected(t *testing.T) {
	err := analyzeErr(t, `
		win(X) :- move(X, Y), not win(Y).
	`)
	if !strings.Contains(err.Error(), "not stratified") {
		t.Fatalf("error = %v", err)
	}
}

func TestIDLiteralOverIDBForcesStratum(t *testing.T) {
	// Example 2 of the paper: sex_guess is derived, man uses its
	// ID-version, so man must sit strictly above sex_guess.
	info := analyze(t, `
		sex_guess(X, male) :- person(X).
		sex_guess(X, female) :- person(X).
		man(X) :- sex_guess[1](X, male, 1).
		woman(X) :- sex_guess[1](X, female, 1).
	`)
	if info.StratumOf["man"] <= info.StratumOf["sex_guess"] {
		t.Fatalf("man stratum %d not above sex_guess stratum %d",
			info.StratumOf["man"], info.StratumOf["sex_guess"])
	}
	// The ID-need is recorded on man's stratum.
	s := info.Strata[info.StratumOf["man"]]
	if len(s.IDNeeds) != 1 || s.IDNeeds[0].Pred != "sex_guess" {
		t.Fatalf("IDNeeds = %v", s.IDNeeds)
	}
}

func TestIDRecursionRejected(t *testing.T) {
	err := analyzeErr(t, `
		p(X) :- p[](X, T), T = 0.
	`)
	if !strings.Contains(err.Error(), "not stratified") {
		t.Fatalf("error = %v", err)
	}
}

func TestMutualIDRecursionRejected(t *testing.T) {
	analyzeErr(t, `
		p(X) :- q(X).
		q(X) :- p[1](X, 0).
	`)
}

func TestIDOverEDBAllowedInStratumZero(t *testing.T) {
	info := analyze(t, `
		select_two(N) :- emp[2](N, D, T), T < 2.
	`)
	if len(info.Strata) != 1 {
		t.Fatalf("strata = %d", len(info.Strata))
	}
	needs := info.Strata[0].IDNeeds
	if len(needs) != 1 || needs[0].Pred != "emp" || len(needs[0].Group) != 1 || needs[0].Group[0] != 1 {
		t.Fatalf("IDNeeds = %+v", needs)
	}
}

func TestArityConflictRejected(t *testing.T) {
	analyzeErr(t, `
		p(X) :- q(X).
		p(X, Y) :- q(X), q(Y).
	`)
	// Conflict between ordinary and ID-use arity.
	analyzeErr(t, `
		a(X) :- q(X, Y).
		b(X) :- q[1](X, T).
	`)
}

func TestBuiltinHeadRejected(t *testing.T) {
	analyzeErr(t, "add(X, Y, Z) :- p(X, Y, Z).")
}

func TestBuiltinArityChecked(t *testing.T) {
	analyzeErr(t, "p(X) :- q(X), succ(X).")
}

func TestChoiceRejectedInPureIDLOG(t *testing.T) {
	err := analyzeErr(t, "p(X) :- q(X, Y), choice((X), (Y)).")
	if !strings.Contains(err.Error(), "choice") {
		t.Fatalf("error = %v", err)
	}
}

func TestUnsafeHeadVariable(t *testing.T) {
	err := analyzeErr(t, "p(X, Y) :- q(X).")
	if !strings.Contains(err.Error(), "head variable") {
		t.Fatalf("error = %v", err)
	}
}

func TestUnsafeNegationOnlyVariable(t *testing.T) {
	analyzeErr(t, "p(X) :- q(X), not r(Y).")
}

func TestUnsafeArithmetic(t *testing.T) {
	// The paper's p1 example: q(X,N), add(N,L,M) — 1+L=M style, pattern
	// bnn, unsafe.
	err := analyzeErr(t, "p1(X, N) :- q(X, N), add(N, L, M).")
	if !strings.Contains(err.Error(), "unsafe") {
		t.Fatalf("error = %v", err)
	}
}

func TestSafeArithmeticReordered(t *testing.T) {
	// The paper's p2 example: add(L,M,N) with N bound from q is safe
	// (nnb). Also the comparison appears before its variable is bound in
	// source order; the planner must move it after emp[2].
	info := analyze(t, `
		p2(X, N) :- q(X, N), add(L, M, N).
		sel(N) :- T < 2, emp[2](N, D, T).
	`)
	sel := info.Strata[info.StratumOf["sel"]]
	for _, oc := range sel.Clauses {
		if oc.Clause.Head.Pred != "sel" {
			continue
		}
		if oc.Clause.Body[0].Atom.Pred != "emp" {
			t.Fatalf("comparison not reordered: %v", oc.Clause)
		}
	}
}

func TestNegatedBuiltinRequiresAllBound(t *testing.T) {
	analyze(t, "p(X) :- q(X, Y), not lt(X, Y).")
	analyzeErr(t, "p(X) :- q(X), not lt(X, Y).")
}

func TestAnonymousVariablesAreIndependent(t *testing.T) {
	// _ in two positions must not join: after freshening the clause is
	// safe and the two positions are distinct variables.
	info := analyze(t, "p(X) :- q(X, _, _).")
	oc := info.Strata[0].Clauses[0]
	args := oc.Clause.Body[0].Atom.Args
	v1 := args[1].(ast.Var).Name
	v2 := args[2].(ast.Var).Name
	if v1 == v2 || v1 == "_" {
		t.Fatalf("anonymous variables not freshened: %s %s", v1, v2)
	}
}

func TestGroupCanonicalization(t *testing.T) {
	info := analyze(t, "p(X) :- q[2,1,2](X, Y, T).")
	needs := info.Strata[0].IDNeeds
	if len(needs) != 1 || len(needs[0].Group) != 2 || needs[0].Group[0] != 0 || needs[0].Group[1] != 1 {
		t.Fatalf("canonicalized group = %+v", needs)
	}
}

func TestLongChainStrata(t *testing.T) {
	info := analyze(t, `
		p1(X) :- base(X).
		p2(X) :- base(X), not p1(X).
		p3(X) :- base(X), not p2(X).
		p4(X) :- base(X), not p3(X).
	`)
	if len(info.Strata) != 4 {
		t.Fatalf("strata = %d, want 4", len(info.Strata))
	}
	for i := 1; i <= 4; i++ {
		name := string(rune('p')) + string(rune('0'+i))
		if info.StratumOf[name] != i-1 {
			t.Fatalf("stratum of %s = %d", name, info.StratumOf[name])
		}
	}
}

func TestFactsOnlyProgram(t *testing.T) {
	info := analyze(t, "emp(joe, toys).\nemp(sue, shoes).")
	if len(info.Strata) != 1 || len(info.Strata[0].Clauses) != 2 {
		t.Fatalf("strata = %+v", info.Strata)
	}
	if !info.IDB["emp"] {
		t.Fatalf("fact predicate should be IDB")
	}
}

func TestErrorIncludesClause(t *testing.T) {
	err := analyzeErr(t, "p(X, Y) :- q(X).")
	if !strings.Contains(err.Error(), "p(X, Y)") {
		t.Fatalf("error %q does not cite the clause", err)
	}
}

func TestNegatedIDLiteralAllowed(t *testing.T) {
	info := analyze(t, `
		first(X) :- e(X, D), e[2](X, D, 0).
		rest(X) :- e(X, D), not e[2](X, D, 0).
	`)
	if len(info.Strata) != 1 {
		t.Fatalf("strata = %d", len(info.Strata))
	}
}

func TestSCCHandlesDeepChains(t *testing.T) {
	// A 200-deep positive chain must stratify into a single stratum
	// without blowing the stack (iterative Tarjan).
	var b strings.Builder
	b.WriteString("p0(X) :- base(X).\n")
	for i := 1; i < 200; i++ {
		b.WriteString("p")
		b.WriteString(itoa(i))
		b.WriteString("(X) :- p")
		b.WriteString(itoa(i - 1))
		b.WriteString("(X).\n")
	}
	info := analyze(t, b.String())
	if len(info.Strata) != 1 {
		t.Fatalf("strata = %d, want 1", len(info.Strata))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestTidBoundConstant(t *testing.T) {
	info := analyze(t, "first(N) :- emp[2](N, D, 0).")
	needs := info.Strata[0].IDNeeds
	if len(needs) != 1 || needs[0].Bound != 1 {
		t.Fatalf("needs = %+v, want Bound 1", needs)
	}
}

func TestTidBoundComparisons(t *testing.T) {
	cases := map[string]int{
		"s(N) :- emp[2](N, D, T), T < 2.":        2,
		"s(N) :- emp[2](N, D, T), T <= 2.":       3,
		"s(N) :- emp[2](N, D, T), T = 3.":        4,
		"s(N) :- emp[2](N, D, T), 5 > T.":        5,
		"s(N) :- emp[2](N, D, T), 5 >= T.":       6,
		"s(N, T) :- emp[2](N, D, T).":            0,
		"s(N) :- emp[2](N, D, T), T > 1.":        0, // lower bound: no prune
		"s(N) :- emp[2](N, D, T), T < 9, T < 4.": 4,
	}
	for src, want := range cases {
		info := analyze(t, src)
		needs := info.Strata[0].IDNeeds
		if len(needs) != 1 || needs[0].Bound != want {
			t.Errorf("%q: needs = %+v, want Bound %d", src, needs, want)
		}
	}
}

func TestTidBoundMergesAcrossClauses(t *testing.T) {
	// Shared ID-relation: the bound must cover every occurrence.
	info := analyze(t, `
		a(N) :- emp[2](N, D, 0).
		b(N) :- emp[2](N, D, T), T < 3.
	`)
	needs := info.Strata[0].IDNeeds
	if len(needs) != 1 || needs[0].Bound != 3 {
		t.Fatalf("needs = %+v, want merged Bound 3", needs)
	}
	// Any unbounded occurrence forces full materialization.
	info = analyze(t, `
		a(N) :- emp[2](N, D, 0).
		b(N, T) :- emp[2](N, D, T).
	`)
	needs = info.Strata[0].IDNeeds
	if len(needs) != 1 || needs[0].Bound != 0 {
		t.Fatalf("needs = %+v, want Bound 0 (unbounded)", needs)
	}
}

func TestTidBoundNegatedComparisonIgnored(t *testing.T) {
	// "not T >= 2" does bound T, but the analyzer is conservative about
	// negated literals and must not prune.
	info := analyze(t, "s(N) :- emp(N, D), emp[2](N, D, T), not ge(T, 2).")
	needs := info.Strata[0].IDNeeds
	if len(needs) != 1 || needs[0].Bound != 0 {
		t.Fatalf("needs = %+v, want Bound 0", needs)
	}
}

// TestComponentsRefineStrata: each stratum lists its strongly connected
// components in dependency order, each with its own clauses and
// recursion flag, while the strata themselves are unchanged.
func TestComponentsRefineStrata(t *testing.T) {
	info := analyze(t, `
		m(c).
		m(X) :- m(X).
		tc(X, Y) :- m(X), e(X, Y).
		tc(X, Y) :- m(X), tc(X, Z), e(Z, Y).
		ans(Y) :- tc(c, Y).
		odd(X) :- e(X, _), not ans(X).
	`)
	if len(info.Strata) != 2 {
		t.Fatalf("strata = %d, want 2", len(info.Strata))
	}
	if got := strings.Join(info.Strata[0].Preds, ","); got != "ans,m,tc" {
		t.Fatalf("stratum 0 preds = %s", got)
	}
	type want struct {
		preds     string
		clauses   int
		recursive bool
	}
	for si, ws := range [][]want{
		{{"m", 2, true}, {"tc", 2, true}, {"ans", 1, false}},
		{{"odd", 1, false}},
	} {
		comps := info.Strata[si].Components
		if len(comps) != len(ws) {
			t.Fatalf("stratum %d: %d components, want %d", si, len(comps), len(ws))
		}
		for ci, w := range ws {
			c := comps[ci]
			if got := strings.Join(c.Preds, ","); got != w.preds || len(c.Clauses) != w.clauses || c.Recursive != w.recursive {
				t.Fatalf("stratum %d component %d = {%s, %d clauses, recursive %v}, want %+v",
					si, ci, got, len(c.Clauses), c.Recursive, w)
			}
		}
	}
}
