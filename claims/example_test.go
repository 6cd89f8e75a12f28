package claims

import (
	"fmt"
	"sort"
	"strings"

	"idlog"
	"idlog/claims/internal/disjunctive"
	"idlog/claims/internal/inflate"
	"idlog/claims/internal/stable"
	"idlog/claims/internal/turing"
)

// Example_semantics puts §3.2 on one screen: the same
// non-deterministic query — guess each person's sex — in the four
// formalisms the paper discusses, with their answer families side by
// side:
//
//	DATALOG∨  man(X) ∨ woman(X) :- person(X)          (minimal models)
//	stable    man(X) :- person(X), not woman(X) / ... (stable models)
//	DL        the same rules under the non-deterministic
//	          inflationary semantics                   (outcomes)
//	IDLOG     sex_guess + ID-literal                   (perfect models)
//
// All four families coincide: the powerset of persons for man.
func Example_semantics() {
	db := idlog.NewDatabase()
	for _, p := range []string{"ada", "bob", "cyd"} {
		if err := db.Add("person", idlog.Strs(p)); err != nil {
			fmt.Println(err)
			return
		}
	}
	families := map[string][]string{}

	disj, err := disjunctive.Parse(`man(X), woman(X) :- person(X).`)
	if err != nil {
		fmt.Println(err)
		return
	}
	models, err := disj.MinimalModels(db, disjunctive.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, m := range models {
		families["DATALOG-or"] = append(families["DATALOG-or"], m.Relation("man", 1).String())
	}

	stab, err := stable.Parse(manWomanNegation)
	if err != nil {
		fmt.Println(err)
		return
	}
	smodels, err := stab.StableModels(db, stable.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, m := range smodels {
		families["stable"] = append(families["stable"], m.Relation("man", 1).String())
	}

	dl, err := inflate.Parse(inflate.DL, manWomanNegation)
	if err != nil {
		fmt.Println(err)
		return
	}
	outcomes, err := dl.EnumerateOutcomes(db, []string{"man"}, inflate.EnumerateOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, a := range outcomes {
		families["DL"] = append(families["DL"], a.Relations["man"].String())
	}

	prog, err := idlog.Parse(manWomanIDLOG)
	if err != nil {
		fmt.Println(err)
		return
	}
	answers, err := prog.Enumerate(db, []string{"man"})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, a := range answers {
		families["IDLOG"] = append(families["IDLOG"], a.Relations["man"].String())
	}

	names := []string{"DATALOG-or", "stable", "DL", "IDLOG"}
	for _, n := range names {
		sort.Strings(families[n])
	}
	for _, n := range names {
		fmt.Printf("%-10s %d answers, identical to IDLOG's: %v\n",
			n, len(families[n]), fmt.Sprint(families[n]) == fmt.Sprint(families["IDLOG"]))
	}
	for _, f := range families["IDLOG"] {
		fmt.Println(f)
	}
	// Output:
	// DATALOG-or 8 answers, identical to IDLOG's: true
	// stable     8 answers, identical to IDLOG's: true
	// DL         8 answers, identical to IDLOG's: true
	// IDLOG      8 answers, identical to IDLOG's: true
	// man{(ada), (bob), (cyd)}
	// man{(ada), (bob)}
	// man{(ada), (cyd)}
	// man{(ada)}
	// man{(bob), (cyd)}
	// man{(bob)}
	// man{(cyd)}
	// man{}
}

// Example_turing demonstrates §5: a non-deterministic Turing machine
// compiles to a stratified IDLOG program whose ID-literal guesses the
// whole choice sequence, and acceptance becomes "some answer of the
// query derives tm_accept" — the existential acceptance of NGTMs
// behind Theorem 6.
func Example_turing() {
	m := containsOne()
	if err := m.Validate(); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("machine: %d rules, deterministic=%v\n", len(m.Rules), m.Deterministic())

	const steps, tapeBudget = 3, 5
	compiled, err := turing.Compile(m, steps, tapeBudget)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("compiled: %d clauses, %d strata; the guess:\n",
		len(compiled.Program.Clauses), len(compiled.Info.Strata))
	for _, c := range compiled.Program.Clauses {
		if s := c.String(); strings.HasPrefix(s, "tm_branch") || strings.HasPrefix(s, "tm_pick") {
			fmt.Println("  ", s)
		}
	}

	for _, input := range []string{"001", "000", "1", ""} {
		direct, configs := m.Accepts(tape(input), steps)
		accepts, sum, err := compiled.Accepts(turing.TapeDB(tape(input)), 500000)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("input %-5q BFS over %d configs: %-5v  compiled, %d answers (%d accepting): %v\n",
			input, configs, direct, sum.Answers, sum.Accepting, accepts)
	}

	// Generic-machine flavour: a relational database on the tape.
	db := idlog.NewDatabase()
	if err := db.AddAll("emp", idlog.Strs("joe", "toys"), idlog.Strs("sue", "shoes")); err != nil {
		fmt.Println(err)
		return
	}
	cells, enc, err := turing.EncodeDatabase(db)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("database as tape, codeword width %d: %s\n", enc.Width(), strings.Join(cells, ""))
	// Output:
	// machine: 3 rules, deterministic=false
	// compiled: 24 clauses, 2 strata; the guess:
	//    tm_branch(T, Id) :- tm_time(T), T < 3, tm_rule(Id, Q, R, Qn, W, M).
	//    tm_pick(T, Id) :- tm_branch[1](T, Id, 0).
	// input "001" BFS over 5 configs: true   compiled, 5 answers (1 accepting): true
	// input "000" BFS over 4 configs: false  compiled, 4 answers (0 accepting): false
	// input "1"   BFS over 3 configs: true   compiled, 3 answers (1 accepting): true
	// input ""    BFS over 1 configs: false  compiled, 1 answers (0 accepting): false
	// database as tape, codeword width 2: ([00,11][10,01])
}
