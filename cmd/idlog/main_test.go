package main

import (
	"context"
	"errors"
	"fmt"
	"os"
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
