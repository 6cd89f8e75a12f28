package main

import (
	"strings"
	"testing"

	"idlog"
	"idlog/internal/wal"
)

func runSession(t *testing.T, input string) string {
	t.Helper()
	var out strings.Builder
	runREPL(strings.NewReader(input), &out, replLimits{}, nil, nil, nil)
	return out.String()
}

func TestREPLFactsAndQuery(t *testing.T) {
	out := runSession(t, `
emp(joe, toys).
emp(sue, shoes).
?- emp(X, toys).
:quit
`)
	if !strings.Contains(out, "X = joe") || !strings.Contains(out, "1 answer(s)") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestREPLGroundQueryTrueFalse(t *testing.T) {
	out := runSession(t, `
emp(joe, toys).
?- emp(joe, toys).
?- emp(joe, shoes).
:quit
`)
	if !strings.Contains(out, "true") || !strings.Contains(out, "false") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestREPLRulesAndIDLiterals(t *testing.T) {
	out := runSession(t, `
emp(joe, toys).
emp(sue, toys).
pick(N) :- emp[2](N, D, 0).
?- pick(X).
:quit
`)
	if !strings.Contains(out, "1 answer(s)") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestREPLRejectsBadClauseWithoutCorruptingSession(t *testing.T) {
	out := runSession(t, `
p(a).
q(X, Y) :- p(X).
?- p(X).
:quit
`)
	// The unsafe clause must be rejected but p(a) still queryable.
	if !strings.Contains(out, "error:") {
		t.Fatalf("unsafe clause accepted:\n%s", out)
	}
	if !strings.Contains(out, "X = a") {
		t.Fatalf("session corrupted:\n%s", out)
	}
}

func TestREPLListAndClear(t *testing.T) {
	out := runSession(t, `
p(a).
:list
:clear
?- p(X).
:quit
`)
	if !strings.Contains(out, "p(a).") {
		t.Fatalf(":list missing clause:\n%s", out)
	}
	if !strings.Contains(out, "no answers") {
		t.Fatalf(":clear did not drop clauses:\n%s", out)
	}
}

func TestREPLSeedCommand(t *testing.T) {
	out := runSession(t, `
:seed 42
:sorted
:seed zzz
:quit
`)
	if !strings.Contains(out, "seed 42") || !strings.Contains(out, "sorted") || !strings.Contains(out, "bad seed") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestREPLMultilineClause(t *testing.T) {
	out := runSession(t, `
tc(X, Y) :-
  e(X, Y).
e(a, b).
?- tc(X, Y).
:quit
`)
	if !strings.Contains(out, "X = a, Y = b") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestREPLLoadFile(t *testing.T) {
	path := writeFile(t, "prog.idl", "p(a).\np(b).\n")
	out := runSession(t, ":load "+path+"\n?- p(X).\n:quit\n")
	if !strings.Contains(out, "loaded 2 clauses") || !strings.Contains(out, "2 answer(s)") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestREPLHelpAndUnknown(t *testing.T) {
	out := runSession(t, ":help\n:bogus\n:quit\n")
	if !strings.Contains(out, "commands:") || !strings.Contains(out, "unknown command") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestREPLAnsPredicateCollision(t *testing.T) {
	out := runSession(t, `
ans(a).
?- ans(X).
:quit
`)
	if !strings.Contains(out, "X = a") {
		t.Fatalf("ans collision broke queries:\n%s", out)
	}
}

func TestREPLLimitsCommand(t *testing.T) {
	out := runSession(t, `
:limits
:limits max-derivations 1 timeout 30s
e(a, b).
e(b, c).
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), e(Y, Z).
?- tc(X, Y).
:limits max-derivations 0 timeout 0s
?- tc(X, Y).
:quit
`)
	// The default shows everything off; the set echoes the new values.
	if !strings.Contains(out, "limits: timeout=off, max-tuples=off, max-derivations=off") {
		t.Fatalf("default limits not shown:\n%s", out)
	}
	if !strings.Contains(out, "limits: timeout=30s, max-tuples=off, max-derivations=1") {
		t.Fatalf("set limits not echoed:\n%s", out)
	}
	// First query trips the 1-derivation budget; after clearing it the
	// same query succeeds.
	if !strings.Contains(out, "error:") {
		t.Fatalf("budget did not trip:\n%s", out)
	}
	if !strings.Contains(out, "3 answer(s)") {
		t.Fatalf("query after clearing limits failed:\n%s", out)
	}
}

func TestREPLLimitsValidation(t *testing.T) {
	out := runSession(t, `
:limits timeout
:limits timeout banana
:limits max-tuples -3
:limits widgets 7
:limits partitions 4
:limits parallel 2
:limits magic off
:quit
`)
	for _, want := range []string{"usage: :limits", "bad timeout", "bad max-tuples", "unknown limit: widgets",
		"unknown limit: partitions", "unknown limit: parallel", "unknown limit: magic"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

// TestREPLLimitsShowNoParallel checks that :limits no longer renders a
// worker count: the fixpoint has one worker.
func TestREPLLimitsShowNoParallel(t *testing.T) {
	out := runSession(t, ":limits\n:quit\n")
	if !strings.Contains(out, "limits: timeout=off, max-tuples=off, max-derivations=off\n") ||
		strings.Contains(out, "parallel=") || strings.Contains(out, "magic=") {
		t.Fatalf(":limits renders a worker count or lost a key:\n%s", out)
	}
}

// TestREPLLimitsUsageNamesEveryKey checks that the usage line lists
// every key :limits accepts, and that each listed key is accepted.
func TestREPLLimitsUsageNamesEveryKey(t *testing.T) {
	keys := map[string]string{
		"timeout": "1s", "max-tuples": "5", "max-derivations": "5",
	}
	for key, val := range keys {
		if !strings.Contains(limitsUsage, "["+key+" ") {
			t.Errorf("usage line omits %q: %s", key, limitsUsage)
		}
		if out := runSession(t, ":limits "+key+" "+val+"\n:quit\n"); strings.Contains(out, "unknown limit") ||
			!strings.Contains(out, "limits: ") {
			t.Errorf(":limits %s %s rejected:\n%s", key, val, out)
		}
	}
	if n := strings.Count(limitsUsage, "["); n != len(keys) {
		t.Errorf("usage line lists %d keys, want %d: %s", n, len(keys), limitsUsage)
	}
}

func TestREPLBackslashCommands(t *testing.T) {
	out := runSession(t, `
\limits max-tuples 100
p(a).
\list
\quit
`)
	if !strings.Contains(out, "limits: timeout=off, max-tuples=100, max-derivations=off") {
		t.Fatalf("\\limits not honored:\n%s", out)
	}
	if !strings.Contains(out, "p(a).") || !strings.Contains(out, "bye") {
		t.Fatalf("\\list or \\quit not honored:\n%s", out)
	}
}

func TestREPLEOFWithoutQuit(t *testing.T) {
	// EOF must terminate cleanly.
	out := runSession(t, "p(a).\n")
	if !strings.Contains(out, "ok") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestREPLAssertRetractQuery(t *testing.T) {
	out := runSession(t, `
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), e(Y, Z).
:assert e(a, b). e(b, c).
?- tc(a, X).
:retract e(b, c).
?- tc(a, X).
:db
:quit
`)
	if !strings.Contains(out, "asserted 2 fact(s)") {
		t.Fatalf("missing assert ack:\n%s", out)
	}
	if !strings.Contains(out, "retracted 1 fact(s)") {
		t.Fatalf("missing retract ack:\n%s", out)
	}
	if !strings.Contains(out, "X = c") {
		t.Fatalf("tc(a, c) not derived after assert:\n%s", out)
	}
	// After retracting e(b, c) the second query must see only X = b.
	if strings.Count(out, "X = c") != 1 {
		t.Fatalf("tc(a, c) should be gone after retract:\n%s", out)
	}
	if !strings.Contains(out, "e{(a, b)}") {
		t.Fatalf(":db should list the surviving relation:\n%s", out)
	}
}

func TestREPLAssertErrors(t *testing.T) {
	out := runSession(t, `
:assert
:assert tc(X, Y) :- e(X, Y).
:assert e(a, b).
:retract e(nope, nowhere).
:retract q(zzz).
:quit
`)
	if !strings.Contains(out, "usage: :assert") {
		t.Fatalf("missing usage for bare :assert:\n%s", out)
	}
	if !strings.Contains(out, "is not a fact") {
		t.Fatalf("rule passed to :assert should error:\n%s", out)
	}
	// Deleting an absent tuple from a known relation is a no-op ack;
	// deleting from an unknown relation is a validation error.
	if !strings.Contains(out, "retracted 0 fact(s)") {
		t.Fatalf("retracting an absent fact should be a no-op ack:\n%s", out)
	}
	if !strings.Contains(out, "unknown relation q") {
		t.Fatalf("retract from unknown relation should error:\n%s", out)
	}
}

func TestREPLWALDurability(t *testing.T) {
	path := t.TempDir() + "/repl.wal"
	log1, recs, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh wal has %d records", len(recs))
	}
	var out strings.Builder
	runREPL(strings.NewReader(":assert e(a, b). e(b, c).\n:retract e(b, c).\n:quit\n"),
		&out, replLimits{}, nil, nil, log1)
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh session replaying the log sees exactly the surviving facts.
	log2, recs, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(recs) != 2 {
		t.Fatalf("want 2 replayed records, got %d", len(recs))
	}
	db := idlog.NewDatabase()
	for _, rec := range recs {
		next, _, err := db.Apply(rec.Inserts, rec.Deletes)
		if err != nil {
			t.Fatal(err)
		}
		db = next
	}
	var out2 strings.Builder
	runREPL(strings.NewReader(":db\n:quit\n"), &out2, replLimits{}, nil, db, log2)
	if !strings.Contains(out2.String(), "e{(a, b)}") {
		t.Fatalf("replayed db wrong:\n%s", out2.String())
	}
}

func TestREPLPlanCommand(t *testing.T) {
	out := runSession(t, `
e(a, b).
e(b, c).
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), e(Y, Z).
:plan tc(a, Z).
:plan
:limits planner off
:quit
`)
	if !strings.Contains(out, "plan:") || !strings.Contains(out, "delta tc") {
		t.Fatalf("plan output missing:\n%s", out)
	}
	if !strings.Contains(out, "[scan") && !strings.Contains(out, "[probe") {
		t.Fatalf("no access paths rendered:\n%s", out)
	}
	if !strings.Contains(out, "[delta scan]") {
		t.Fatalf("delta-first rotation not rendered:\n%s", out)
	}
	if !strings.Contains(out, "usage: :plan") {
		t.Fatalf("bare :plan should print usage:\n%s", out)
	}
	if !strings.Contains(out, "unknown limit: planner") || strings.Contains(out, "planner=") {
		t.Fatalf(":limits planner should be an unknown limit:\n%s", out)
	}
}
