package idlog

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestPreparedQueryMatchesQuery pins the prepared-query API: same rows
// as Program.Query, typed parse errors, and actual plan-cache hits on
// repeated runs against an unchanged database.
func TestPreparedQueryMatchesQuery(t *testing.T) {
	prog := mustParse(t, `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	db := NewDatabase()
	if err := AddFactsText(db, "e(a, b). e(b, c). e(c, d)."); err != nil {
		t.Fatal(err)
	}
	db.Freeze()

	pq, err := prog.Prepare("tc(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if pq.Goal() != "tc(a, Y)" {
		t.Fatalf("Goal() = %q", pq.Goal())
	}
	want, err := prog.Query(db, "tc(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := pq.Query(db)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) || fmt.Sprint(got.Vars) != fmt.Sprint(want.Vars) {
			t.Fatalf("run %d: prepared rows %v, want %v", i, got.Rows, want.Rows)
		}
	}
	if hits, misses := pq.CacheStats(); hits != 2 || misses != 1 {
		t.Fatalf("plan cache: hits=%d misses=%d, want 2/1", hits, misses)
	}

	// A malformed goal surfaces as a typed parse error from Prepare.
	if _, err := prog.Prepare("tc(a, "); err == nil {
		t.Fatal("Prepare accepted a malformed goal")
	} else {
		var ie *Error
		if !errors.As(err, &ie) || ie.Code != CodeParseError {
			t.Fatalf("Prepare error = %v, want CodeParseError", err)
		}
	}
}

// TestPlanCacheInvalidation is the ISSUE's property test: a seeded
// random interleaving of Database.Apply mutations with cached prepared
// queries must always agree with a fresh parse+compile+plan of the
// same goal, and the plan cache must actually hit between mutations.
func TestPlanCacheInvalidation(t *testing.T) {
	prog := mustParse(t, `
		tc(X, Y) :- edge(X, Y).
		tc(X, Z) :- tc(X, Y), edge(Y, Z).
		unreach(X, Y) :- node(X), node(Y), not tc(X, Y).
	`)
	const nodes = 8
	db := NewDatabase()
	for i := 0; i < nodes; i++ {
		_ = db.Add("node", Strs(fmt.Sprintf("n%d", i)))
	}
	_ = db.Add("edge", Strs("n0", "n1"))
	db = db.Freeze()

	goals := []string{"tc(n0, Y)", "unreach(X, n1)"}
	prepared := make([]*PreparedQuery, len(goals))
	for i, g := range goals {
		pq, err := prog.Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = pq
	}

	rng := rand.New(rand.NewSource(7))
	edge := func() Fact {
		a, b := rng.Intn(nodes), rng.Intn(nodes)
		return Fact{Pred: "edge", Tuple: Strs(fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b))}
	}
	for round := 0; round < 40; round++ {
		// Mutate roughly every other round so cached plans both hit
		// (same version) and invalidate (new version).
		if round > 0 && rng.Intn(2) == 0 {
			var ins, del []Fact
			for n := rng.Intn(3); n >= 0; n-- {
				ins = append(ins, edge())
			}
			if rng.Intn(2) == 0 {
				del = append(del, edge())
			}
			next, _, err := db.Apply(ins, del)
			if err != nil {
				t.Fatalf("round %d: apply: %v", round, err)
			}
			db = next
		}
		gi := rng.Intn(len(goals))
		for pass := 0; pass < 2; pass++ {
			cached, err := prepared[gi].Query(db)
			if err != nil {
				t.Fatalf("round %d: prepared: %v", round, err)
			}
			fresh, err := prog.Query(db, goals[gi])
			if err != nil {
				t.Fatalf("round %d: fresh: %v", round, err)
			}
			if fmt.Sprint(cached.Rows) != fmt.Sprint(fresh.Rows) {
				t.Fatalf("round %d goal %q pass %d: cached %v != fresh %v",
					round, goals[gi], pass, cached.Rows, fresh.Rows)
			}
		}
	}
	var hits uint64
	for _, pq := range prepared {
		h, m := pq.CacheStats()
		if h+m == 0 {
			t.Fatal("prepared query never consulted its plan cache")
		}
		hits += h
	}
	// Each round runs the same goal twice against one database
	// version, so hits are guaranteed.
	if hits == 0 {
		t.Fatal("plan cache never hit across 40 rounds")
	}
}

// TestSetDiskCacheBytes pins the runtime-resizable block-cache budget:
// shrinking the process-wide cache must shed resident bytes down to
// the new budget, and growing it must widen admission.
func TestSetDiskCacheBytes(t *testing.T) {
	defer SetDiskCacheBytes(64 << 20) // restore the default budget
	SetDiskCacheBytes(1 << 20)
	if _, _, bytes := DiskCacheStats(); bytes > 1<<20 {
		t.Fatalf("cache holds %d bytes after shrinking to 1 MiB", bytes)
	}
	SetDiskCacheBytes(64 << 20)
	if _, _, bytes := DiskCacheStats(); bytes > 64<<20 {
		t.Fatalf("cache holds %d bytes, budget 64 MiB", bytes)
	}
}
