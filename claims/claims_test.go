package claims

import (
	"fmt"
	"testing"

	"idlog/internal/analysis"
	"idlog/internal/ast"
	"idlog/internal/core"
	"idlog/internal/parser"
	"idlog/internal/relation"
	"idlog/internal/value"
)

func parse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Program(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func analyzeProgram(t *testing.T, p *ast.Program) *analysis.Info {
	t.Helper()
	info, err := analysis.Analyze(p)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return info
}

func analyze(t *testing.T, src string) *analysis.Info {
	t.Helper()
	return analyzeProgram(t, parse(t, src))
}

func eval(t *testing.T, info *analysis.Info, db *core.Database, opts core.Options) *core.Result {
	t.Helper()
	res, err := core.Eval(info, db, opts)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return res
}

func seeded(seed int) core.Options {
	return core.Options{Oracle: relation.RandomOracle{Seed: uint64(seed)}}
}

// fingerprints projects an answer list to its fingerprints, in the
// enumerators' sorted order: two queries agree on an input iff these
// lists are equal.
func fingerprints(answers []*core.Answer) []string {
	out := make([]string, len(answers))
	for i, a := range answers {
		out[i] = a.Fingerprint()
	}
	return out
}

// empDB builds emp(Name, Dept) with depts departments of perDept
// employees each.
func empDB(depts, perDept int) *core.Database {
	db := core.NewDatabase()
	for d := 0; d < depts; d++ {
		dept := value.Str(fmt.Sprintf("dept%03d", d))
		for e := 0; e < perDept; e++ {
			_ = db.Add("emp", value.Tuple{value.Str(fmt.Sprintf("e%03d_%04d", d, e)), dept})
		}
	}
	return db
}

// chainFanDB builds the §4 workload: a chain of length chain in p, each
// chain node also pointing at fan distinct leaves.
func chainFanDB(chain, fan int) *core.Database {
	db := core.NewDatabase()
	leaf := int64(1 << 20)
	for i := int64(0); i < int64(chain); i++ {
		_ = db.Add("p", value.Ints(i, i+1))
		for f := 0; f < fan; f++ {
			_ = db.Add("p", value.Ints(i, leaf))
			leaf++
		}
	}
	return db
}

// chainDB builds e(i, i+1) for i in [0, n).
func chainDB(n int) *core.Database {
	db := core.NewDatabase()
	for i := int64(0); i < int64(n); i++ {
		_ = db.Add("e", value.Ints(i, i+1))
	}
	return db
}

// gridDB builds a g×g grid graph in e (right and down edges).
func gridDB(g int) *core.Database {
	db := core.NewDatabase()
	id := func(r, c int) int64 { return int64(r*g + c) }
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			if c+1 < g {
				_ = db.Add("e", value.Ints(id(r, c), id(r, c+1)))
			}
			if r+1 < g {
				_ = db.Add("e", value.Ints(id(r, c), id(r+1, c)))
			}
		}
	}
	return db
}

// personDB builds person(p00) … person(p<n-1>).
func personDB(n int) *core.Database {
	db := core.NewDatabase()
	for i := 0; i < n; i++ {
		_ = db.Add("person", value.Strs(fmt.Sprintf("p%02d", i)))
	}
	return db
}

// manWomanIDLOG is Example 2: guess each person's sex with an
// ID-literal over the two candidate tuples.
const manWomanIDLOG = `
	sex_guess(X, male) :- person(X).
	sex_guess(X, female) :- person(X).
	man(X) :- sex_guess[1](X, male, 1).
`

// manWomanNegation is the same query as a non-stratified program, read
// under stable-model and inflationary semantics.
const manWomanNegation = `
	man(X) :- person(X), not woman(X).
	woman(X) :- person(X), not man(X).
`

// family is a set of answer fingerprints: one semantics' answer family
// for one predicate.
type family map[string]bool

func answerFamily(answers []*core.Answer, pred string) family {
	f := family{}
	for _, a := range answers {
		f[a.Relations[pred].Fingerprint()] = true
	}
	return f
}

// equal reports whether f and g hold the same answers.
func (f family) equal(g family) bool {
	if len(f) != len(g) {
		return false
	}
	for k := range f {
		if !g[k] {
			return false
		}
	}
	return true
}
