package relation

import (
	"sort"
	"sync"
	"testing"

	"idlog/internal/value"
)

// probeTuples is Probe, materializing the matching tuples.
func probeTuples(r *Relation, cols []int, key value.Tuple) []value.Tuple {
	pos := r.Probe(cols, key)
	out := make([]value.Tuple, len(pos))
	for i, p := range pos {
		out[i] = r.At(p)
	}
	return out
}

func strs(ss ...string) value.Tuple {
	t := make(value.Tuple, len(ss))
	for i, s := range ss {
		t[i] = value.Str(s)
	}
	return t
}

func probeStrings(t *testing.T, r *Relation, cols []int, key value.Tuple) []string {
	t.Helper()
	var out []string
	for _, tup := range probeTuples(r, cols, key) {
		out = append(out, tup.String())
	}
	sort.Strings(out)
	return out
}

// TestIndexMaintainedAcrossInserts is the regression test for the
// insert-path audit: a secondary index built by an early probe must see
// tuples inserted after it was built (insert → probe → insert → probe).
func TestIndexMaintainedAcrossInserts(t *testing.T) {
	r := New("edge", 2)
	r.MustInsert(strs("a", "b"))
	r.MustInsert(strs("a", "c"))
	r.MustInsert(strs("x", "y"))

	// First probe builds the index on column 0.
	got := probeStrings(t, r, []int{0}, strs("a"))
	want := []string{`(a, b)`, `(a, c)`}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("first probe = %v, want %v", got, want)
	}

	// Inserts AFTER the index exists must be visible to later probes.
	r.MustInsert(strs("a", "d"))
	r.MustInsert(strs("z", "w"))
	got = probeStrings(t, r, []int{0}, strs("a"))
	want = []string{`(a, b)`, `(a, c)`, `(a, d)`}
	if len(got) != len(want) {
		t.Fatalf("post-insert probe = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-insert probe = %v, want %v", got, want)
		}
	}

	// A brand-new key inserted after the build must be probeable too.
	if got := probeStrings(t, r, []int{0}, strs("z")); len(got) != 1 || got[0] != `(z, w)` {
		t.Fatalf("new-key probe = %v, want [(z, w)]", got)
	}

	// And a second index on a different column subset follows the same
	// rules independently.
	if got := probeStrings(t, r, []int{1}, strs("d")); len(got) != 1 || got[0] != `(a, d)` {
		t.Fatalf("col-1 probe = %v, want [(a, d)]", got)
	}
	r.MustInsert(strs("q", "d"))
	if got := probeStrings(t, r, []int{1}, strs("d")); len(got) != 2 {
		t.Fatalf("col-1 probe after insert = %v, want 2 matches", got)
	}
	// The column-0 index must have been maintained by that insert as well.
	if got := probeStrings(t, r, []int{0}, strs("q")); len(got) != 1 {
		t.Fatalf("col-0 probe after col-1 insert = %v, want 1 match", got)
	}
}

// TestIndexMaintainedThroughUnion covers inserting another relation's
// tuples after an index was built: the index must stay current.
func TestIndexMaintainedThroughUnion(t *testing.T) {
	r := New("p", 2)
	r.MustInsert(strs("k", "1"))
	if got := probeStrings(t, r, []int{0}, strs("k")); len(got) != 1 {
		t.Fatalf("initial probe = %v, want 1 match", got)
	}
	s := New("p", 2)
	s.MustInsert(strs("k", "2"))
	s.MustInsert(strs("k", "1")) // duplicate: must not double-count
	s.MustInsert(strs("m", "3"))
	added := 0
	for _, tup := range s.Tuples() {
		if r.MustInsert(tup) {
			added++
		}
	}
	if added != 2 {
		t.Fatalf("union added %d tuples, want 2", added)
	}
	if got := probeStrings(t, r, []int{0}, strs("k")); len(got) != 2 {
		t.Fatalf("probe after union = %v, want 2 matches", got)
	}
	if got := probeStrings(t, r, []int{0}, strs("m")); len(got) != 1 {
		t.Fatalf("probe after union = %v, want 1 match", got)
	}
}

// TestIndexSurvivesFreeze checks that indexes built before Freeze stay
// usable after it, and that post-freeze concurrent probes (which build
// additional indexes through the copy-on-write slot) see every tuple.
func TestIndexSurvivesFreeze(t *testing.T) {
	r := New("edge", 2)
	r.MustInsert(strs("a", "b"))
	if got := probeStrings(t, r, []int{0}, strs("a")); len(got) != 1 {
		t.Fatalf("pre-freeze probe = %v, want 1 match", got)
	}
	r.MustInsert(strs("a", "c"))
	r.Freeze()
	if got := probeStrings(t, r, []int{0}, strs("a")); len(got) != 2 {
		t.Fatalf("post-freeze probe = %v, want 2 matches", got)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := probeStrings(t, r, []int{1}, strs("c")); len(got) != 1 {
				errs <- "concurrent col-1 probe missed a tuple"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestConcurrentProbeReadOnlyPhase models a read-only phase: many
// goroutines probe an UNFROZEN relation (no writer active), racing to
// build indexes on several column subsets at once.
func TestConcurrentProbeReadOnlyPhase(t *testing.T) {
	r := New("t", 3)
	r.MustInsert(strs("a", "b", "c"))
	r.MustInsert(strs("a", "d", "c"))
	r.MustInsert(strs("e", "b", "f"))
	colSets := [][]int{{0}, {1}, {2}, {0, 2}}
	keys := []value.Tuple{strs("a"), strs("b"), strs("c"), strs("a", "c")}
	wants := []int{2, 2, 2, 2}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(colSets)
			if got := r.Probe(colSets[i], keys[i]); len(got) != wants[i] {
				errs <- "concurrent unfrozen probe returned wrong match count"
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// A subsequent single-threaded insert maintains every index the
	// racing probes built.
	r.MustInsert(strs("a", "b", "z"))
	if got := r.Probe([]int{0}, strs("a")); len(got) != 3 {
		t.Fatalf("col-0 probe after insert = %d matches, want 3", len(got))
	}
	if got := r.Probe([]int{1}, strs("b")); len(got) != 3 {
		t.Fatalf("col-1 probe after insert = %d matches, want 3", len(got))
	}
}
