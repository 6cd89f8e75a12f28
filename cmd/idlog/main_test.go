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
// retired -partitions, -planner, -parallel, -magic and -random flags
// are unknown flags (usage error, exit 2), while -plan on the same
// program opens with its first stratum and renders the delta-first
// rotation of a recursive clause.
func TestRemovedFlagIsUsageError(t *testing.T) {
	prog := writeFile(t, "x.idl", "e(a, b).\ne(b, c).\ntc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).\n")
	run := func(args string) (int, string) {
		code, stdout, stderr := runMain(t, args)
		return code, stdout + stderr
	}
	for name, args := range map[string]string{"partitions": "-partitions 4", "planner": "-planner=false",
		"parallel": "-parallel 2", "magic": "-magic=false", "random": "-random"} {
		if code, out := run(args + " " + prog); code != exitUsage ||
			!strings.Contains(out, "flag provided but not defined: -"+name) {
			t.Fatalf("%s: exit %d, want %d (unknown flag):\n%s", args, code, exitUsage, out)
		}
	}
	if code, out := run("-plan " + prog); code != exitOK || !strings.Contains(out, "[delta scan]") ||
		!strings.HasPrefix(out, "stratum 0: ") {
		t.Fatalf("-plan: exit %d, want %d opening with stratum 0 and with a [delta scan] step:\n%s", code, exitOK, out)
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
		code, stdout, stderr := runMain(t, "-seed 7 -facts "+f+" "+prog)
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

// TestMagicOnOffAnswersAgree runs a bound REPL goal, which takes the
// magic-sets demand path, and checks it against the same session's
// free goal, which evaluates the full program: the bound goal's
// answers are exactly the free rows with X = a, three of them, and
// :plan's header names the path each goal runs.
func TestMagicOnOffAnswersAgree(t *testing.T) {
	tcm := writeFile(t, "tcm.idl", "e(a, b). e(b, c). e(c, d).\ntc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).\n")
	repl := func(input string) []string {
		t.Helper()
		code, stdout, stderr := runMainInput(t, input, "-i -facts "+tcm)
		if code != exitOK {
			t.Fatalf("idlog -i: exit %d:\n%s%s", code, stdout, stderr)
		}
		return strings.Split(stdout, "\n")
	}
	answers := func(lines []string, prefix string) []string {
		var out []string
		for _, l := range lines {
			l = strings.TrimPrefix(l, "idlog> ")
			if rest, ok := strings.CutPrefix(l, prefix); ok {
				out = append(out, rest)
			}
		}
		return out
	}
	bound := answers(repl("?- tc(a, X).\n:quit\n"), "X = ")
	full := answers(repl("?- tc(X, Y).\n:quit\n"), "X = a, Y = ")
	if strings.Join(bound, ",") != strings.Join(full, ",") || len(bound) != 3 {
		t.Fatalf("bound goal answers %q, full evaluation has %q for X = a; want the same three", bound, full)
	}
	for goal, header := range map[string]string{"tc(a, X)": "magic-sets rewrite active", "tc(X, Y)": "rewrite inapplicable: goal binds no argument"} {
		if out := strings.Join(repl(":plan "+goal+"\n:quit\n"), "\n"); !strings.Contains(out, header) {
			t.Fatalf(":plan %s: want %q in\n%s", goal, header, out)
		}
	}
}

// TestSeedFlagSelectsRandomOracle runs a sampling program in child
// processes. An explicit -seed 0 selects RandomOracle(0), so the batch
// output equals an in-process WithSeed(0) run and differs from the
// sorted oracle's; and a REPL started with -seed 7 answers with the
// rows a -seed 7 batch run prints.
func TestSeedFlagSelectsRandomOracle(t *testing.T) {
	var facts []string
	for d := 0; d < 4; d++ {
		for e := 0; e < 8; e++ {
			facts = append(facts, fmt.Sprintf("emp(e%d_%d, d%d).", d, e, d))
		}
	}
	rule := "s(N, D) :- emp[2](N, D, T), T < 2.\n"
	prog, factFile := writeFile(t, "sample.idl", rule), writeFile(t, "emp.facts", strings.Join(facts, "\n")+"\n")
	model := func(opts ...idlog.Option) *idlog.Relation {
		t.Helper()
		p, err := idlog.Parse(rule)
		if err != nil {
			t.Fatal(err)
		}
		db := idlog.NewDatabase()
		if err := loadFacts(db, factFile); err != nil {
			t.Fatal(err)
		}
		res, err := p.Eval(db, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res.Relation("s")
	}
	batch := func(args string) string {
		t.Helper()
		code, stdout, stderr := runMain(t, args+" -facts "+factFile+" "+prog)
		if code != exitOK {
			t.Fatalf("idlog %s: exit %d:\n%s%s", args, code, stdout, stderr)
		}
		return stdout
	}
	zero, sorted := batch("-seed 0"), batch("")
	if want := model(idlog.WithSeed(0)).String() + "\n"; zero != want || zero == sorted {
		t.Fatalf("-seed 0 printed\n%s\nwant WithSeed(0)'s\n%s\n(the sorted oracle prints\n%s)", zero, want, sorted)
	}

	seven := model(idlog.WithSeed(7))
	if out := batch("-seed 7"); out != seven.String()+"\n" {
		t.Fatalf("-seed 7 printed\n%s\nwant WithSeed(7)'s\n%s", out, seven)
	}
	var want []string
	for _, row := range seven.Sorted() {
		want = append(want, fmt.Sprintf("N = %s, D = %s", row[0], row[1]))
	}
	all := writeFile(t, "all.idl", strings.Join(facts, "\n")+"\n"+rule)
	code, stdout, stderr := runMainInput(t, "?- s(N, D).\n:quit\n", "-i -seed 7 -facts "+all)
	if code != exitOK {
		t.Fatalf("idlog -i -seed 7: exit %d:\n%s%s", code, stdout, stderr)
	}
	var got []string
	for _, l := range strings.Split(stdout, "\n") {
		if l = strings.TrimPrefix(l, "idlog> "); strings.HasPrefix(l, "N = ") {
			got = append(got, l)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("REPL with -seed 7 answered\n%s\nwant the -seed 7 batch rows\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestBulkLoadThenDiskQuery streams a 500-edge fact file into a
// disk-engine data directory with -bulk-load, then queries it through
// a 1 MB block cache: a two-hop probe from n0.
func TestBulkLoadThenDiskQuery(t *testing.T) {
	var facts strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&facts, "edge(n%d, n%d).\n", i, (i+1)%500)
	}
	factsPath := writeFile(t, "big.facts", facts.String())
	data := filepath.Join(t.TempDir(), "data")
	code, stdout, stderr := runMain(t, "-bulk-load "+factsPath+" -data-dir "+data)
	if code != exitOK || !strings.Contains(stdout, "loaded 500 tuple(s) into 1 relation(s)") {
		t.Fatalf("-bulk-load: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	hop := writeFile(t, "hop.idl", "hop(Z) :- edge(n0, Y), edge(Y, Z).\n")
	code, stdout, stderr = runMain(t, "-engine=disk -data-dir "+data+" -cache-mb 1 "+hop)
	if code != exitOK || !strings.Contains(stdout, "hop{(n2)}") {
		t.Fatalf("disk query: exit %d, want hop{(n2)}\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}
