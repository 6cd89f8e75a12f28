package magic

import (
	"strings"
	"testing"

	"idlog/internal/analysis"
	"idlog/internal/ast"
	"idlog/internal/parser"
)

func analyze(t *testing.T, src string) *analysis.Info {
	t.Helper()
	prog, err := parser.Program(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := analysis.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return info
}

const tcSrc = `
	tc(X, Y) :- e(X, Y).
	tc(X, Y) :- e(X, Z), tc(Z, Y).
	ans(Y) :- tc(a, Y).
`

func TestRewriteTransitiveClosure(t *testing.T) {
	info := analyze(t, tcSrc)
	rw, err := Rewrite(info, "ans")
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if got, want := strings.Join(rw.Adornments, ","), "tc__bf"; got != want {
		t.Fatalf("adornments = %q, want %q", got, want)
	}
	if rw.GuardedRules != 3 { // ans + two tc variants
		t.Fatalf("guarded rules = %d, want 3", rw.GuardedRules)
	}
	// One seed from the goal, one per derived literal in the recursive
	// clause.
	if rw.MagicRules != 2 {
		t.Fatalf("magic rules = %d, want 2", rw.MagicRules)
	}
	var seed *ast.Clause
	preds := map[string]bool{}
	for _, c := range rw.Program.Clauses {
		preds[c.Head.Pred] = true
		if c.IsFact() {
			seed = c
		}
	}
	if seed == nil || seed.Head.Pred != "m__tc__bf" || len(seed.Head.Args) != 1 {
		t.Fatalf("missing ground magic seed, got %v", seed)
	}
	for _, p := range []string{"ans", "tc__bf", "m__tc__bf"} {
		if !preds[p] {
			t.Fatalf("rewritten program lacks %s (have %v)", p, preds)
		}
	}
	if preds["tc"] {
		t.Fatalf("unadorned tc survived the rewrite")
	}
	// The rewritten program must itself analyze (stratify, pass safety).
	if _, err := analysis.Analyze(rw.Program); err != nil {
		t.Fatalf("rewritten program does not analyze: %v", err)
	}
	if rw.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestRewriteDropsNonConeClauses(t *testing.T) {
	info := analyze(t, tcSrc+`
		junk(X) :- e(X, X), junk2(X).
		junk2(X) :- e(X, X).
	`)
	rw, err := Rewrite(info, "ans")
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if rw.DroppedClauses != 2 {
		t.Fatalf("dropped = %d, want 2", rw.DroppedClauses)
	}
	for _, c := range rw.Program.Clauses {
		if strings.HasPrefix(c.Head.Pred, "junk") {
			t.Fatalf("non-cone clause survived: %v", c)
		}
	}
}

func TestRewriteBoundSecondArgument(t *testing.T) {
	// Demand on the second argument (fb-style): the right-linear rule
	// propagates it through the recursive call.
	info := analyze(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- tc(X, Z), e(Z, Y).
		ans(X) :- tc(X, b).
	`)
	rw, err := Rewrite(info, "ans")
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if got, want := strings.Join(rw.Adornments, ","), "tc__fb"; got != want {
		t.Fatalf("adornments = %q, want %q", got, want)
	}
	if _, err := analysis.Analyze(rw.Program); err != nil {
		t.Fatalf("rewritten program does not analyze: %v", err)
	}
}

func TestRewriteInapplicable(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"id-literal", `
			sex_guess(X, male) :- person(X).
			man(X) :- sex_guess[1](X, male, 1).
			ans :- man(a).
		`, "ID-literal"},
		{"negated-idb", `
			q(X) :- e(X, X).
			p(X) :- e(X, Y), not q(Y).
			ans :- p(a).
		`, "negation over derived predicate"},
		{"free-goal", `
			tc(X, Y) :- e(X, Y).
			tc(X, Y) :- e(X, Z), tc(Z, Y).
			ans(X, Y) :- tc(X, Y).
		`, "binds no argument"},
		{"edb-goal", `
			tc(X, Y) :- e(X, Y).
			ans(Y) :- e(a, Y).
		`, "binds no argument"},
		{"name-collision", `
			tc__bf(X, Y) :- e(X, Y).
			tc(X, Y) :- e(X, Y).
			tc(X, Y) :- tc__bf(X, Z), tc(Z, Y).
			ans(Y) :- tc(a, Y).
		`, "collides"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			info := analyze(t, tc.src)
			_, err := Rewrite(info, "ans")
			if err == nil {
				t.Fatal("rewrite unexpectedly applicable")
			}
			if _, ok := err.(*InapplicableError); !ok {
				t.Fatalf("error not inapplicable-typed: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestRewriteNegationOverEDBAllowed(t *testing.T) {
	info := analyze(t, `
		tc(X, Y) :- e(X, Y), not blocked(Y).
		tc(X, Y) :- e(X, Z), not blocked(Z), tc(Z, Y).
		ans(Y) :- tc(a, Y).
	`)
	rw, err := Rewrite(info, "ans")
	if err != nil {
		t.Fatalf("negation over EDB should be applicable: %v", err)
	}
	if _, err := analysis.Analyze(rw.Program); err != nil {
		t.Fatalf("rewritten program does not analyze: %v", err)
	}
}

func TestRewriteBuiltinsAllowed(t *testing.T) {
	info := analyze(t, `
		cost(X, C) :- edge(X, C).
		cost(X, C) :- edge(X, D), cost(X, E), add(D, E, C), C < 100.
		ans(C) :- cost(a, C), C != 3.
	`)
	rw, err := Rewrite(info, "ans")
	if err != nil {
		t.Fatalf("builtins should be applicable: %v", err)
	}
	if _, err := analysis.Analyze(rw.Program); err != nil {
		t.Fatalf("rewritten program does not analyze: %v", err)
	}
}
