package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idlog/internal/core"
	"idlog/internal/relation"
	"idlog/internal/segment"
	"idlog/internal/value"
)

func testDB(t *testing.T, n int) *core.Database {
	t.Helper()
	db := core.NewDatabase()
	edge := relation.New("edge", 2)
	label := relation.New("label", 1)
	for i := 0; i < n; i++ {
		edge.MustInsert(value.Tuple{value.Int(int64(i)), value.Int(int64((i + 1) % n))})
		label.MustInsert(value.Tuple{value.Str(fmt.Sprintf("n%d", i))})
	}
	db.SetRelation("edge", edge)
	db.SetRelation("label", label)
	return db
}

func TestWriteDirOpenDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := testDB(t, 5000)
	if err := WriteDir(dir, db); err != nil {
		t.Fatal(err)
	}
	got, err := OpenDir(dir, segment.NewCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range db.Names() {
		want, have := db.Relation(name), got.Relation(name)
		if have == nil {
			t.Fatalf("relation %s missing after reopen", name)
		}
		if have.SourceLen() != want.Len() {
			t.Fatalf("%s: SourceLen=%d, want all %d tuples disk-resident", name, have.SourceLen(), want.Len())
		}
		if have.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%s: fingerprint mismatch after reopen", name)
		}
	}
}

func TestWriteDirSweepsOldGenerations(t *testing.T) {
	dir := t.TempDir()
	db := testDB(t, 100)
	if err := WriteDir(dir, db); err != nil {
		t.Fatal(err)
	}
	// A second checkpoint (with a mutation) must supersede and remove
	// the first generation's files.
	db2 := db.Clone()
	edge := db2.Relation("edge").Clone()
	edge.MustInsert(value.Ints(500, 501))
	db2.SetRelation("edge", edge)
	if err := WriteDir(dir, db2); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".seg") {
			segs++
			if !strings.HasPrefix(ent.Name(), "g000002-") {
				t.Fatalf("stale generation file %s survived the sweep", ent.Name())
			}
		}
	}
	if segs != 2 {
		t.Fatalf("%d segment files after second checkpoint, want 2", segs)
	}
	got, err := OpenDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Relation("edge").Len() != 101 {
		t.Fatalf("edge has %d tuples after reopen, want 101", got.Relation("edge").Len())
	}
}

func TestBulkLoad(t *testing.T) {
	facts := `
% transitive closure input
edge(a, b). edge(b, c).
edge(c, 'weird . name'). % dot inside a quoted constant
edge(a, b).  % duplicate
weight(a, 10).
weight(b, 20).
`
	dir := filepath.Join(t.TempDir(), "data")
	stats, err := BulkLoad(dir, strings.NewReader(facts))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Relations != 2 || stats.Tuples != 5 || stats.Duplicates != 1 {
		t.Fatalf("stats = %+v, want 2 relations, 5 tuples, 1 duplicate", stats)
	}
	db, err := OpenDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	edge := db.Relation("edge")
	if edge == nil || edge.Len() != 3 {
		t.Fatalf("edge = %v, want 3 tuples", edge)
	}
	if !edge.Contains(value.Tuple{value.Str("c"), value.Str("weird . name")}) {
		t.Fatal("quoted constant with a dot did not survive bulk load")
	}
	if db.Relation("weight").Len() != 2 {
		t.Fatalf("weight has %d tuples, want 2", db.Relation("weight").Len())
	}

	// A second bulk load into the same directory must refuse.
	if _, err := BulkLoad(dir, strings.NewReader("p(a).")); err == nil {
		t.Fatal("BulkLoad into an existing database did not fail")
	}
}

// A fact longer than the scanner's read window (64 KiB) crosses its end
// and is read again after the window is refilled and grown; // comments
// are comments here as everywhere else.
func TestBulkLoadFactCrossesWindow(t *testing.T) {
	long := strings.Repeat("n", 200<<10)
	facts := "// edges of v1.2\nedge(a, b). // trailing\nedge(b, '" + long + "').\nedge(c, d).\n"
	dir := filepath.Join(t.TempDir(), "data")
	stats, err := BulkLoad(dir, strings.NewReader(facts))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tuples != 3 {
		t.Fatalf("stats = %+v, want 3 tuples", stats)
	}
	db, err := OpenDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	edge := db.Relation("edge")
	for _, tu := range []value.Tuple{value.Strs("a", "b"), value.Strs("b", long), value.Strs("c", "d")} {
		if !edge.Contains(tu) {
			t.Fatalf("edge lacks (%s, <%d bytes>)", tu[0], len(tu[1].String()))
		}
	}
}

func TestBulkLoadRejectsNonFacts(t *testing.T) {
	for _, src := range []string{
		"tc(X, Y) :- edge(X, Y).", // rule
		"p(X).",                   // non-ground fact
		"p(a)",                    // missing terminator
	} {
		dir := filepath.Join(t.TempDir(), "data")
		if _, err := BulkLoad(dir, strings.NewReader(src)); err == nil {
			t.Fatalf("BulkLoad(%q) succeeded, want error", src)
		}
	}
}

func TestOpenDirMissing(t *testing.T) {
	if _, err := OpenDir(filepath.Join(t.TempDir(), "nope"), nil); !os.IsNotExist(err) {
		t.Fatalf("OpenDir on missing dir = %v, want IsNotExist", err)
	}
}
