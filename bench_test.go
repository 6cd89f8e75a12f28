// Benchmarks: one testing.B benchmark per experiment of EXPERIMENTS.md
// (E1–E11). `go test -bench=. -benchmem` reports the raw costs; the
// formatted tables with correctness checks come from cmd/idlogbench.
// E12 (the idlogd server benchmark) lives in internal/bench/serverbench
// only — importing internal/server here would cycle back to this package.
package idlog

import (
	"fmt"
	"testing"
	"time"

	"idlog/internal/bench"
	"idlog/internal/choice"
	"idlog/internal/core"
	"idlog/internal/disjunctive"
	"idlog/internal/inflate"
	"idlog/internal/parser"
	"idlog/internal/relation"
	"idlog/internal/stable"
	"idlog/internal/turing"
)

func mustProg(b *testing.B, src string) *Program {
	b.Helper()
	p, err := Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkE1SamplingIDLOGvsChoicePair: the Example-5 multi-sample
// query, IDLOG one-clause form vs the DATALOG^C pair encoding.
func BenchmarkE1SamplingIDLOGvsChoicePair(b *testing.B) {
	sizes := [][2]int{{4, 8}, {16, 32}}
	idlogProg := mustProg(b, `select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.`)
	pair, err := parser.Program(`
		emp1(N, D) :- emp(N, D), choice((D), (N)).
		emp2(N, D) :- emp(N, D), choice((D), (N)).
		select_two_emp(N1) :- emp1(N1, D), emp2(N2, D), N1 != N2.
		select_two_emp(N2) :- emp1(N1, D), emp2(N2, D), N1 != N2.
	`)
	if err != nil {
		b.Fatal(err)
	}
	for _, sz := range sizes {
		db := bench.EmpDB(sz[0], sz[1])
		b.Run(fmt.Sprintf("idlog/depts=%d,per=%d", sz[0], sz[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := idlogProg.Eval(db, WithSeed(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("choicepair/depts=%d,per=%d", sz[0], sz[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := choice.Eval(pair, db, choice.Options{Oracle: relation.RandomOracle{Seed: uint64(i)}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2AllDeptsOptimization: plain DATALOG vs the ∃-existential
// ID-literal form of the §1 motivating query.
func BenchmarkE2AllDeptsOptimization(b *testing.B) {
	plain := mustProg(b, `all_depts(D) :- emp(N, D).`)
	opt, err := plain.Optimize("all_depts")
	if err != nil {
		b.Fatal(err)
	}
	for _, sz := range [][2]int{{10, 100}, {50, 1000}} {
		db := bench.EmpDB(sz[0], sz[1])
		b.Run(fmt.Sprintf("plain/depts=%d,per=%d", sz[0], sz[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plain.Eval(db); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("idliteral/depts=%d,per=%d", sz[0], sz[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := opt.Eval(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3AdornmentRewrite: Example 6 original vs the Example 8
// optimized program on chain+fan graphs.
func BenchmarkE3AdornmentRewrite(b *testing.B) {
	orig := mustProg(b, `
		q(X) :- a(X, Y).
		a(X, Y) :- p(X, Z), a(Z, Y).
		a(X, Y) :- p(X, Y).
	`)
	opt, err := orig.Optimize("q")
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range [][2]int{{40, 10}, {60, 25}} {
		db := bench.ChainFanDB(w[0], w[1])
		b.Run(fmt.Sprintf("original/chain=%d,fan=%d", w[0], w[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := orig.Eval(db); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("optimized/chain=%d,fan=%d", w[0], w[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := opt.Eval(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4ChoiceTranslation: KN88 direct evaluation vs the
// Theorem-2 IDLOG translation.
func BenchmarkE4ChoiceTranslation(b *testing.B) {
	src := `select_emp(Name) :- emp(Name, Dept), choice((Dept), (Name)).`
	prog, err := parser.Program(src)
	if err != nil {
		b.Fatal(err)
	}
	translated := mustProg(b, src) // facade translates internally
	for _, sz := range [][2]int{{10, 50}, {50, 500}} {
		db := bench.EmpDB(sz[0], sz[1])
		b.Run(fmt.Sprintf("kn88/depts=%d,per=%d", sz[0], sz[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := choice.Eval(prog, db, choice.Options{Oracle: relation.RandomOracle{Seed: 1}}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("translated/depts=%d,per=%d", sz[0], sz[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := translated.Eval(db, WithSeed(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5TuringCompilation: direct NGTM path simulation vs
// evaluating the compiled IDLOG program for one guessed path.
func BenchmarkE5TuringCompilation(b *testing.B) {
	m := &turing.Machine{
		Start: "g", Accept: "acc", Blank: "_",
		Rules: []turing.Rule{
			{State: "g", Read: "0", NewState: "g", Write: "0", Move: turing.Right},
			{State: "g", Read: "1", NewState: "g", Write: "1", Move: turing.Right},
			{State: "g", Read: "1", NewState: "acc", Write: "1", Move: turing.Stay},
		},
	}
	for _, steps := range []int{8, 32} {
		tapeSize := steps + 2
		input := make([]string, tapeSize-2)
		for i := range input {
			input[i] = "0"
		}
		input[len(input)-1] = "1"
		b.Run(fmt.Sprintf("direct/steps=%d", steps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Run(input, steps, nil)
			}
		})
		compiled, err := turing.Compile(m, steps, tapeSize)
		if err != nil {
			b.Fatal(err)
		}
		db := turing.TapeDB(input)
		b.Run(fmt.Sprintf("compiled/steps=%d", steps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := compiled.EvalPath(db, relation.SortedOracle{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6SeminaiveAblation: naive vs semi-naive transitive closure.
func BenchmarkE6SeminaiveAblation(b *testing.B) {
	prog := mustProg(b, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	for _, n := range []int{64, 128} {
		db := bench.ChainDB(n)
		b.Run(fmt.Sprintf("seminaive/chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prog.Eval(db); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("naive/chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prog.Eval(db, WithNaive()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7ModelEnumeration: full answer-set enumeration of the
// Example-2 program as the person set grows.
func BenchmarkE7ModelEnumeration(b *testing.B) {
	prog := mustProg(b, `
		sex_guess(X, male) :- person(X).
		sex_guess(X, female) :- person(X).
		man(X) :- sex_guess[1](X, male, 1).
	`)
	for _, n := range []int{3, 6} {
		db := NewDatabase()
		for i := 0; i < n; i++ {
			_ = db.Add("person", Strs(fmt.Sprintf("p%02d", i)))
		}
		b.Run(fmt.Sprintf("persons=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				answers, err := prog.Enumerate(db, []string{"man"}, WithMaxRuns(2000000))
				if err != nil {
					b.Fatal(err)
				}
				if len(answers) != 1<<n {
					b.Fatalf("answers = %d", len(answers))
				}
			}
		})
	}
}

// BenchmarkE8InflationarySemantics: a single inflationary DL run vs a
// single IDLOG fixpoint run of the man/woman query.
func BenchmarkE8InflationarySemantics(b *testing.B) {
	dl, err := inflate.Parse(inflate.DL, `
		man(X) :- person(X), not woman(X).
		woman(X) :- person(X), not man(X).
	`)
	if err != nil {
		b.Fatal(err)
	}
	idlogProg := mustProg(b, `
		sex_guess(X, male) :- person(X).
		sex_guess(X, female) :- person(X).
		man(X) :- sex_guess[1](X, male, 1).
		woman(X) :- sex_guess[1](X, female, 1).
	`)
	for _, n := range []int{4, 8} {
		db := core.NewDatabase()
		for i := 0; i < n; i++ {
			_ = db.Add("person", Strs(fmt.Sprintf("p%02d", i)))
		}
		b.Run(fmt.Sprintf("dl/persons=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dl.Eval(db, inflate.Options{Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("idlog/persons=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := idlogProg.Eval(db, WithSeed(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9SemanticsLandscape: enumerating the Example-2 answer
// family under each of the four formalisms of §3.2.
func BenchmarkE9SemanticsLandscape(b *testing.B) {
	disj, err := disjunctive.Parse(`man(X), woman(X) :- person(X).`)
	if err != nil {
		b.Fatal(err)
	}
	stab, err := stable.Parse(`
		man(X) :- person(X), not woman(X).
		woman(X) :- person(X), not man(X).
	`)
	if err != nil {
		b.Fatal(err)
	}
	idlogProg := mustProg(b, `
		sex_guess(X, male) :- person(X).
		sex_guess(X, female) :- person(X).
		man(X) :- sex_guess[1](X, male, 1).
	`)
	const persons = 3
	db := core.NewDatabase()
	for i := 0; i < persons; i++ {
		_ = db.Add("person", Strs(fmt.Sprintf("p%02d", i)))
	}
	facadeDB := NewDatabase()
	for i := 0; i < persons; i++ {
		_ = facadeDB.Add("person", Strs(fmt.Sprintf("p%02d", i)))
	}
	b.Run("disjunctive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := disj.MinimalModels(db, disjunctive.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := stab.StableModels(db, stable.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("idlog", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := idlogProg.Enumerate(facadeDB, []string{"man"}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11GovernedOverhead: the same transitive-closure run with no
// guard vs an armed, never-tripping guard (timeout + tuple + derivation
// limits). The delta is the whole cost of resource governance.
func BenchmarkE11GovernedOverhead(b *testing.B) {
	prog := mustProg(b, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	for _, n := range []int{64, 128} {
		db := bench.ChainDB(n)
		b.Run(fmt.Sprintf("ungoverned/chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prog.Eval(db); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("governed/chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := prog.Eval(db,
					WithTimeout(time.Hour), WithMaxTuples(1<<30), WithMaxDerivations(1<<30))
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10DeterministicCounting: the cardinality-via-tids program
// as the relation grows.
func BenchmarkE10DeterministicCounting(b *testing.B) {
	prog := mustProg(b, `
		has_tid(T) :- item[](X, T).
		card(C)    :- has_tid(T), succ(T, C), not has_tid(C).
	`)
	for _, n := range []int{100, 1000} {
		db := NewDatabase()
		for i := 0; i < n; i++ {
			_ = db.Add("item", Ints(int64(i)))
		}
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := prog.Eval(db, WithSeed(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if !res.Relation("card").Contains(Ints(int64(n))) {
					b.Fatalf("wrong count")
				}
			}
		})
	}
}

// BenchmarkE17PreparedPointQuery: the E17 prepared-query kernel via the
// public API — Program.Query re-parses the goal and re-plans every
// stratum per call, while a Program.Prepare handle reuses one compiled
// wrapper and a plan cache across calls.
func BenchmarkE17PreparedPointQuery(b *testing.B) {
	src := "l0(X, Y) :- e(X, Y).\n"
	for i := 1; i < 32; i++ {
		src += fmt.Sprintf("l%d(X, Y) :- l%d(X, Z), e(Z, Y).\n", i, i-1)
	}
	prog := mustProg(b, src)
	db := bench.ChainDB(12)
	const goal = "l31(0, Y)"
	b.Run("query", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := prog.Query(db, goal); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		pq, err := prog.Prepare(goal)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pq.Query(db); err != nil {
				b.Fatal(err)
			}
		}
	})
}
