package idlog

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDiskDatabaseRoundTrip drives the public disk-engine API end to
// end: bulk-load facts into a data directory, open it, evaluate,
// checkpoint the result, and reopen — fingerprints identical at every
// hop.
func TestDiskDatabaseRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	var facts strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&facts, "edge(n%d, n%d).\n", i, (i+1)%500)
	}
	stats, err := BulkLoadFacts(dir, strings.NewReader(facts.String()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Relations != 1 || stats.Tuples != 500 {
		t.Fatalf("bulk load stats = %+v", stats)
	}

	db, err := OpenDiskDatabase(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Relation("edge").SourceLen(); got != 500 {
		t.Fatalf("SourceLen = %d, want all 500 tuples disk-resident", got)
	}
	prog, err := Parse(`
		tc(X, Y) :- edge(X, Y).
		tc(X, Z) :- tc(X, Y), edge(Y, Z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Eval(db.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Relation("tc").Len(); got != 500*500 {
		t.Fatalf("tc over a 500-ring = %d tuples, want %d", got, 500*500)
	}

	// Checkpoint the model and reopen: byte-identical fingerprints.
	out := NewDatabase()
	out.SetRelation("tc", res.Relation("tc"))
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if err := SaveDiskDatabase(ckpt, out); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDiskDatabase(ckpt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.Relation("tc").Fingerprint() != res.Relation("tc").Fingerprint() {
		t.Fatal("tc fingerprint changed across checkpoint + reopen")
	}
}

// differentialPrograms is the program pool for the cross-engine
// differential suite: stratified programs spanning recursion, negation,
// arithmetic, and joins over the generated EDB (edge/2, label/1,
// weight/2).
var differentialPrograms = []string{
	// Transitive closure.
	`tc(X, Y) :- edge(X, Y).
	 tc(X, Z) :- tc(X, Y), edge(Y, Z).`,
	// Join against a unary relation plus projection.
	`hop(X, Z) :- edge(X, Y), edge(Y, Z).
	 marked(X) :- label(X), hop(X, _).`,
	// Stratified negation: nodes with no outgoing edge.
	`node(X) :- edge(X, _).
	 node(Y) :- edge(_, Y).
	 hasout(X) :- edge(X, _).
	 sink(X) :- node(X), not hasout(X).`,
	// Arithmetic over the weight relation.
	`heavy(X) :- weight(X, W), W > 50.
	 pair(X, Y) :- heavy(X), heavy(Y), edge(X, Y).`,
}

// dbAfterMutations builds a random EDB over n symbols, then runs a
// random mutation interleaving (insert and delete batches) against it,
// exactly as a live session would. The returned database is the
// post-interleaving state.
func dbAfterMutations(db *Database, rng *rand.Rand, n int) *Database {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	sym := func() Value { return Str(names[rng.Intn(n)]) }
	for i := 0; i < n*3; i++ {
		db.Add("edge", Tuple{sym(), sym()})
	}
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			db.Add("label", Tuple{sym()})
		}
		db.Add("weight", Tuple{sym(), Int(int64(rng.Intn(100)))})
	}
	// Mutation interleaving: alternating insert/delete batches through
	// the same Apply path the REPL, WAL replay, and idlogd use.
	for round := 0; round < 4; round++ {
		var ins, dels []Fact
		for i := 0; i < 1+rng.Intn(5); i++ {
			ins = append(ins, Fact{Pred: "edge", Tuple: Tuple{sym(), sym()}})
		}
		edge := db.Relation("edge")
		if edge != nil && edge.Len() > 0 {
			all := edge.Sorted()
			for i := 0; i < 1+rng.Intn(3); i++ {
				dels = append(dels, Fact{Pred: "edge", Tuple: all[rng.Intn(len(all))]})
			}
		}
		next, _, err := db.Apply(ins, dels)
		if err != nil {
			panic(err)
		}
		db = next
	}
	return db
}

// TestDiskEngineDifferential is the cross-engine property test: for
// random EDBs shaped by random mutation interleavings, the disk engine
// must be observationally identical to the in-memory engine — same
// relation fingerprints after spill+reopen, and same evaluation results
// for every program in the pool. Run with -race this also exercises
// concurrent block-cache access (the trials run in parallel).
func TestDiskEngineDifferential(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(trial) * 7919))
			mem := dbAfterMutations(NewDatabase(), rng, 5+rng.Intn(20))

			dir := filepath.Join(t.TempDir(), "data")
			if err := SaveDiskDatabase(dir, mem); err != nil {
				t.Fatal(err)
			}
			disk, err := OpenDiskDatabase(dir, 8<<10) // tiny cache: force eviction traffic
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range mem.Names() {
				mr, dr := mem.Relation(name), disk.Relation(name)
				if dr == nil || mr.Fingerprint() != dr.Fingerprint() {
					t.Fatalf("trial %d: %s fingerprint diverges after spill+reopen", trial, name)
				}
			}
			mem.Freeze()
			disk.Freeze()
			for pi, src := range differentialPrograms {
				prog, err := Parse(src)
				if err != nil {
					t.Fatalf("program %d: %v", pi, err)
				}
				mres, merr := prog.Eval(mem)
				dres, derr := prog.Eval(disk)
				if (merr == nil) != (derr == nil) {
					t.Fatalf("trial %d program %d: mem err %v, disk err %v", trial, pi, merr, derr)
				}
				if merr != nil {
					continue
				}
				for _, p := range prog.OutputPredicates() {
					mrel, drel := mres.Relation(p), dres.Relation(p)
					if (mrel == nil) != (drel == nil) {
						t.Fatalf("trial %d program %d: %s presence diverges", trial, pi, p)
					}
					if mrel != nil && mrel.Fingerprint() != drel.Fingerprint() {
						t.Fatalf("trial %d program %d: %s fingerprint diverges\nmem:  %v\ndisk: %v",
							trial, pi, p, mrel, drel)
					}
				}
			}
		})
	}
}

// TestDiskEngineSeamEnv pins the IDLOG_ENGINE=disk test seam itself: it
// is compiled in, off by default, and spills through the same WriteDir/
// OpenDir path the differential suite validates. (The full-suite run
// under the seam happens in CI via IDLOG_ENGINE=disk go test ./...,
// where the env var is set before process start; here we only verify
// the off state, since the seam latches its first reading.)
func TestDiskEngineSeamEnv(t *testing.T) {
	if os.Getenv("IDLOG_ENGINE") == "disk" {
		t.Skip("seam armed for this whole process; covered by the suite itself")
	}
	db := NewDatabase()
	db.Add("edge", Tuple{Str("a"), Str("b")})
	got, err := engineTestDB(db)
	if err != nil {
		t.Fatal(err)
	}
	if got != db {
		t.Fatal("seam rerouted the database with IDLOG_ENGINE unset")
	}
}
