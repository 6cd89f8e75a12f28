package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"idlog"
	"idlog/internal/parser"
	"idlog/internal/storage"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadFacts(t *testing.T) {
	path := writeFile(t, "facts.idl", `
		emp(joe, toys).
		emp(sue, shoes).
		level(joe, 3).
	`)
	db := idlog.NewDatabase()
	if err := loadFacts(db, path); err != nil {
		t.Fatal(err)
	}
	if db.Relation("emp").Len() != 2 {
		t.Fatalf("emp = %v", db.Relation("emp"))
	}
	lvl := db.Relation("level")
	if lvl.Len() != 1 || !lvl.Contains(idlog.Tuple{idlog.Str("joe"), idlog.Int(3)}) {
		t.Fatalf("level = %v", lvl)
	}
}

func TestLoadFactsRejectsRules(t *testing.T) {
	path := writeFile(t, "facts.idl", "p(X) :- q(X).")
	if err := loadFacts(idlog.NewDatabase(), path); err == nil {
		t.Fatalf("rule in fact file not rejected")
	}
}

func TestLoadFactsRejectsNonGround(t *testing.T) {
	path := writeFile(t, "facts.idl", "p(X).")
	if err := loadFacts(idlog.NewDatabase(), path); err == nil {
		t.Fatalf("non-ground fact not rejected")
	}
}

// dumpDB renders every relation of db, in name order.
func dumpDB(db *idlog.Database) string {
	names := db.Names()
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s\n", db.Relation(n))
	}
	return b.String()
}

// The three readers of fact text — -facts (loadFacts), ParseFacts /
// AddFactsText, and BulkLoad — read one file into the same relations
// and report a bad fact at the same line.
func TestFactReadersAgree(t *testing.T) {
	const text = `% edges of v1.2
edge(a, b). // trailing comment
edge(b, 'c.d''s'). weight(a, 10).
edge(
  c,
  a
).
`
	path := writeFile(t, "g.facts", text)
	viaCLI := idlog.NewDatabase()
	if err := loadFacts(viaCLI, path); err != nil {
		t.Fatal(err)
	}
	viaText := idlog.NewDatabase()
	if err := idlog.AddFactsText(viaText, text); err != nil {
		t.Fatal(err)
	}
	facts, err := idlog.ParseFacts(text)
	if err != nil {
		t.Fatal(err)
	}
	viaParse := idlog.NewDatabase()
	for _, f := range facts {
		if err := viaParse.Add(f.Pred, f.Tuple); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(t.TempDir(), "data")
	if _, err := storage.BulkLoadFile(dir, path); err != nil {
		t.Fatal(err)
	}
	viaBulk, err := storage.OpenDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := "edge{(a, b), (b, c.d's), (c, a)}\nweight{(a, 10)}\n"
	for name, db := range map[string]*idlog.Database{"-facts": viaCLI, "AddFactsText": viaText, "ParseFacts": viaParse, "BulkLoad": viaBulk} {
		if got := dumpDB(db); got != want {
			t.Errorf("%s read\n%s\nwant\n%s", name, got, want)
		}
	}

	const badText = "edge(a, b).\n% fine so far\nedge(b, X).\n"
	bad := writeFile(t, "bad.facts", badText)
	errs := map[string]error{
		"-facts":       loadFacts(idlog.NewDatabase(), bad),
		"AddFactsText": idlog.AddFactsText(idlog.NewDatabase(), badText),
	}
	_, errs["ParseFacts"] = idlog.ParseFacts(badText)
	_, errs["BulkLoad"] = storage.BulkLoadFile(filepath.Join(t.TempDir(), "data"), bad)
	for name, err := range errs {
		var pe *parser.Error
		if !errors.As(err, &pe) || pe.Pos.Line != 3 {
			t.Errorf("%s: error %v, want a parse error on line 3", name, err)
		}
	}
}

func TestLoadFactsMissingFile(t *testing.T) {
	if err := loadFacts(idlog.NewDatabase(), "/nonexistent/facts.idl"); err == nil {
		t.Fatalf("missing file not reported")
	}
}

func TestExitCodeMapping(t *testing.T) {
	prog, err := idlog.Parse(`
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := idlog.NewDatabase()
	for i := int64(0); i < 50; i++ {
		if err := db.Add("e", idlog.Ints(i, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	errFor := func(ctx context.Context, opts ...idlog.Option) error {
		_, err := prog.EvalContext(ctx, db, opts...)
		return err
	}
	_, parseErr := idlog.Parse("p(X :-")
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, exitOK},
		{"plain", fmt.Errorf("disk on fire"), exitError},
		{"parse", parseErr, exitError},
		{"canceled", errFor(canceled), exitCanceled},
		{"timeout", errFor(context.Background(), idlog.WithTimeout(time.Nanosecond)), exitTimeout},
		{"derivations", errFor(context.Background(), idlog.WithMaxDerivations(5)), exitBudget},
		{"tuples", errFor(context.Background(), idlog.WithMaxTuples(5)), exitBudget},
	}
	for _, tc := range cases {
		if tc.want != exitOK && tc.err == nil {
			t.Fatalf("%s: expected a triggering error", tc.name)
		}
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("%s: exitCode(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
	// Enumeration trips map through the same taxonomy.
	_, err = prog.Enumerate(db, []string{"tc"}, idlog.WithTimeout(time.Nanosecond))
	if err == nil || exitCode(err) != exitTimeout {
		t.Errorf("enumerate timeout: err = %v, exitCode = %d", err, exitCode(err))
	}
	var ie *idlog.Error
	if !errors.As(errFor(canceled), &ie) || ie.Code != idlog.CodeCanceled {
		t.Errorf("canceled run did not produce a typed error")
	}
}

func TestStringListFlag(t *testing.T) {
	var s stringList
	_ = s.Set("a")
	_ = s.Set("b")
	if s.String() != "a,b" || len(s) != 2 {
		t.Fatalf("stringList = %v", s)
	}
}

// TestMain lets a test run the CLI in a child process: the test binary
// re-executes itself with IDLOG_TEST_MAIN_ARGS set and runs main on
// those arguments (see runMain).
func TestMain(m *testing.M) {
	if args := os.Getenv("IDLOG_TEST_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"idlog"}, strings.Fields(args)...)
		main()
		os.Exit(exitOK)
	}
	os.Exit(m.Run())
}

// runMain runs idlog with the space-separated args in a child process
// and returns its exit code, stdout and stderr.
func runMain(t *testing.T, args string) (code int, stdout, stderr string) {
	t.Helper()
	return runMainInput(t, "", args)
}

// runMainInput is runMain with stdin read from input.
func runMainInput(t *testing.T, input, args string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "IDLOG_TEST_MAIN_ARGS="+args)
	cmd.Stdin = strings.NewReader(input)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), out.String(), errOut.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return exitOK, out.String(), errOut.String()
}

// TestRemovedFlagIsUsageError runs the CLI in a child process: the
// retired -partitions and -planner flags are unknown flags (usage
// error, exit 2), while -parallel on the same program runs normally
// and -plan renders the worker count and the delta-first rotation of a
// recursive clause.
func TestRemovedFlagIsUsageError(t *testing.T) {
	prog := writeFile(t, "x.idl", "e(a, b).\ne(b, c).\ntc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).\n")
	run := func(args string) (int, string) {
		code, stdout, stderr := runMain(t, args)
		return code, stdout + stderr
	}
	for name, args := range map[string]string{"partitions": "-partitions 4", "planner": "-planner=false"} {
		if code, out := run(args + " " + prog); code != exitUsage ||
			!strings.Contains(out, "flag provided but not defined: -"+name) {
			t.Fatalf("%s: exit %d, want %d (unknown flag):\n%s", args, code, exitUsage, out)
		}
	}
	if code, out := run("-parallel 2 " + prog); code != exitOK || !strings.Contains(out, "tc{(a, b), (a, c), (b, c)}") {
		t.Fatalf("-parallel 2: exit %d, want %d:\n%s", code, exitOK, out)
	}
	if code, out := run("-plan " + prog); code != exitOK || !strings.Contains(out, "[delta scan]") ||
		!strings.HasPrefix(out, "workers: 1 (sequential)\n") {
		t.Fatalf("-plan: exit %d, want %d with the worker count and a [delta scan] step:\n%s", code, exitOK, out)
	}
	if code, out := run("-plan -parallel 3 " + prog); code != exitOK || !strings.HasPrefix(out, "workers: 3 ") {
		t.Fatalf("-plan -parallel 3: exit %d, want %d with 3 workers:\n%s", code, exitOK, out)
	}
}

// TestParallelMatchesSequential runs the CLI at several -parallel
// values: the default (0) and 2 workers render byte-identical answers
// to -parallel 1, and the -stats line is equal at 0, 1, 2 and 4
// workers, both on a small recursive program with negation and on a
// dense closure whose widest delta rounds (~5.4k tuples) clear the
// 4096-tuple round gate, so one run at 2 or 4 workers mixes direct and
// fanned-out rounds.
func TestParallelMatchesSequential(t *testing.T) {
	tc19 := writeFile(t, "tc19.idl", "e(a, b). e(b, c). e(c, d).\n"+
		"tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).\n"+
		"bad(d).\nr(X) :- e(a, X).\nr(Y) :- r(X), e(X, Y), not bad(Y).\n")
	var dense strings.Builder
	for i := 0; i < 128; i++ {
		for _, j := range []int{(i + 1) % 128, (3*i + 1) % 128, (7*i + 2) % 128} {
			fmt.Fprintf(&dense, "edge(g%d, g%d).\n", i, j)
		}
	}
	denseFacts := writeFile(t, "dense.facts", dense.String())
	inputs := map[string]string{
		"tc19":  tc19,
		"dense": "-facts " + denseFacts + " " + filepath.Join("..", "..", "examples", "programs", "tc.idl"),
	}
	for name, input := range inputs {
		var render, stats string
		for _, p := range []int{1, 0, 2, 4} {
			code, stdout, stderr := runMain(t, fmt.Sprintf("-stats -parallel %d %s", p, input))
			if code != exitOK {
				t.Fatalf("%s -parallel %d: exit %d:\n%s", name, p, code, stderr)
			}
			var line string
			for _, l := range strings.Split(stderr, "\n") {
				if strings.HasPrefix(l, "stats:") {
					line = l
				}
			}
			if line == "" {
				t.Fatalf("%s -parallel %d: no stats line:\n%s", name, p, stderr)
			}
			if p == 1 {
				render, stats = stdout, line
				continue
			}
			if stdout != render {
				t.Fatalf("%s: -parallel %d renders\n%s\nwant (-parallel 1)\n%s", name, p, stdout, render)
			}
			if line != stats {
				t.Fatalf("%s: -parallel %d %s, want (-parallel 1) %s", name, p, line, stats)
			}
		}
	}
}

// TestSeededAnswersIgnoreFactOrder runs a seeded sampling query over
// the same emp facts written in two orders, each in a fresh process, so
// the u-constants are interned in two different orders. The answers
// must be byte-identical: the seeded oracle keys each member's tid on
// its names, not on the numbers the symbol table happened to issue.
func TestSeededAnswersIgnoreFactOrder(t *testing.T) {
	var facts []string
	for d := 0; d < 4; d++ {
		for e := 0; e < 6; e++ {
			facts = append(facts, fmt.Sprintf("emp(e%d_%d, d%d).", d, e, d))
		}
	}
	prog := writeFile(t, "sample.idl", "s(N, D) :- emp[2](N, D, T), T < 2.\n")
	var outs []string
	for i, order := range [][]string{facts, reversed(facts), interleaved(facts)} {
		f := writeFile(t, fmt.Sprintf("emp%d.facts", i), strings.Join(order, "\n")+"\n")
		code, stdout, stderr := runMain(t, "-random -seed 7 -facts "+f+" "+prog)
		if code != exitOK || !strings.Contains(stdout, "s{") {
			t.Fatalf("order %d: exit %d:\n%s%s", i, code, stdout, stderr)
		}
		outs = append(outs, stdout)
	}
	for i, out := range outs[1:] {
		if out != outs[0] {
			t.Fatalf("order %d answers\n%s\nwant (file order)\n%s", i+1, out, outs[0])
		}
	}
}

func reversed(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[len(ss)-1-i] = s
	}
	return out
}

// interleaved deals ss out odd positions first, then even ones.
func interleaved(ss []string) []string {
	var out []string
	for start := 1; start >= 0; start-- {
		for i := start; i < len(ss); i += 2 {
			out = append(out, ss[i])
		}
	}
	return out
}

// TestMagicOnOffAnswersAgree runs one REPL goal with the magic-sets
// demand rewrite on (the default) and off (-magic=false): the sessions
// print identical answers, three of them, and :plan's header names the
// path that ran.
func TestMagicOnOffAnswersAgree(t *testing.T) {
	tcm := writeFile(t, "tcm.idl", "e(a, b). e(b, c). e(c, d).\ntc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).\n")
	repl := func(input, flags string) string {
		t.Helper()
		code, stdout, stderr := runMainInput(t, input, "-i "+flags+"-facts "+tcm)
		if code != exitOK {
			t.Fatalf("idlog -i %s: exit %d:\n%s%s", flags, code, stdout, stderr)
		}
		return stdout
	}
	on, off := repl("?- tc(a, X).\n:quit\n", ""), repl("?- tc(a, X).\n:quit\n", "-magic=false ")
	if on != off {
		t.Fatalf("magic on answers\n%s\nmagic off answers\n%s", on, off)
	}
	if !strings.Contains(on, "3 answer(s)") {
		t.Fatalf("want 3 answer(s):\n%s", on)
	}
	for flags, header := range map[string]string{"": "magic-sets rewrite active", "-magic=false ": "rewrite available but disabled"} {
		if out := repl(":plan tc(a, X)\n:quit\n", flags); !strings.Contains(out, header) {
			t.Fatalf(":plan with flags %q: want %q in\n%s", flags, header, out)
		}
	}
}
