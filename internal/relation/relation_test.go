package relation

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"idlog/internal/value"
)

func emp() *Relation {
	// The running example of the paper: employees with departments.
	return FromTuples("emp", 2,
		value.Strs("joe", "toys"),
		value.Strs("sue", "toys"),
		value.Strs("ann", "toys"),
		value.Strs("bob", "shoes"),
		value.Strs("eve", "shoes"),
	)
}

func TestInsertDeduplicates(t *testing.T) {
	r := New("p", 2)
	added, err := r.Insert(value.Strs("a", "b"))
	if err != nil || !added {
		t.Fatalf("first insert: %v %v", added, err)
	}
	added, err = r.Insert(value.Strs("a", "b"))
	if err != nil || added {
		t.Fatalf("duplicate insert reported added=%v err=%v", added, err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestInsertArityMismatch(t *testing.T) {
	r := New("p", 2)
	if _, err := r.Insert(value.Strs("a")); err == nil {
		t.Fatalf("arity mismatch not rejected")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("MustInsert did not panic on arity mismatch")
		}
	}()
	r.MustInsert(value.Strs("a", "b", "c"))
}

func TestContains(t *testing.T) {
	r := emp()
	if !r.Contains(value.Strs("joe", "toys")) {
		t.Fatalf("missing inserted tuple")
	}
	if r.Contains(value.Strs("joe", "shoes")) {
		t.Fatalf("contains absent tuple")
	}
	if r.Contains(value.Strs("joe")) {
		t.Fatalf("contains tuple of wrong arity")
	}
}

func TestEqualIgnoresOrderAndName(t *testing.T) {
	a := FromTuples("a", 1, value.Strs("x"), value.Strs("y"))
	b := FromTuples("b", 1, value.Strs("y"), value.Strs("x"))
	if !a.Equal(b) {
		t.Fatalf("set-equal relations reported unequal")
	}
	b.MustInsert(value.Strs("z"))
	if a.Equal(b) {
		t.Fatalf("different relations reported equal")
	}
}

func TestProjectCollapsesDuplicates(t *testing.T) {
	depts := emp().Project("depts", []int{1})
	if depts.Len() != 2 {
		t.Fatalf("projection has %d tuples, want 2: %v", depts.Len(), depts)
	}
	if !depts.Contains(value.Strs("toys")) || !depts.Contains(value.Strs("shoes")) {
		t.Fatalf("projection content wrong: %v", depts)
	}
}

func TestProbeFindsMatches(t *testing.T) {
	r := emp()
	hits := probeTuples(r, []int{1}, value.Strs("toys"))
	if len(hits) != 3 {
		t.Fatalf("probe toys: %d hits, want 3", len(hits))
	}
	for _, h := range hits {
		if h[1].String() != "toys" {
			t.Fatalf("probe returned non-matching tuple %v", h)
		}
	}
	if got := probeTuples(r, []int{1}, value.Strs("books")); len(got) != 0 {
		t.Fatalf("probe books: %d hits, want 0", len(got))
	}
}

func TestProbeStaysInSyncAfterInsert(t *testing.T) {
	r := emp()
	_ = probeTuples(r, []int{1}, value.Strs("toys")) // force index build
	r.MustInsert(value.Strs("kim", "toys"))
	hits := probeTuples(r, []int{1}, value.Strs("toys"))
	if len(hits) != 4 {
		t.Fatalf("after insert probe returned %d hits, want 4", len(hits))
	}
}

func TestProbeEmptyColumnsMatchesAll(t *testing.T) {
	r := emp()
	if got := len(r.Probe(nil, value.Tuple{})); got != r.Len() {
		t.Fatalf("empty-column probe returned %d, want %d", got, r.Len())
	}
}

func TestGroups(t *testing.T) {
	r := emp()
	groups := r.Groups([]int{1})
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	// Canonical order: "shoes" < "toys".
	if groups[0].Key.String() != "(shoes)" || groups[1].Key.String() != "(toys)" {
		t.Fatalf("group order wrong: %v, %v", groups[0].Key, groups[1].Key)
	}
	if len(groups[0].Members) != 2 || len(groups[1].Members) != 3 {
		t.Fatalf("group sizes wrong: %d, %d", len(groups[0].Members), len(groups[1].Members))
	}
	// Members are sorted canonically.
	ms := groups[1].Members
	for i := 1; i < len(ms); i++ {
		if ms[i-1].Compare(ms[i]) >= 0 {
			t.Fatalf("group members not sorted: %v", ms)
		}
	}
}

func TestGroupsEmptyColumnSet(t *testing.T) {
	r := emp()
	groups := r.Groups(nil)
	if len(groups) != 1 || len(groups[0].Members) != r.Len() {
		t.Fatalf("p[] grouping should yield one whole-relation group, got %d groups", len(groups))
	}
}

func TestFingerprintOrderIndependent(t *testing.T) {
	a := FromTuples("a", 1, value.Strs("x"), value.Strs("y"), value.Strs("z"))
	b := FromTuples("a", 1, value.Strs("z"), value.Strs("x"), value.Strs("y"))
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprints of set-equal relations differ")
	}
	b.MustInsert(value.Strs("w"))
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatalf("fingerprints of different relations coincide")
	}
}

// TestFingerprintIndependentOfInternOrder runs two child processes of
// the test binary that intern the same constants in opposite orders, so
// each gives them different symbol IDs, and build the same relation:
// their fingerprints must be equal, as a primary's and a follower's
// must be when they compare state.
func TestFingerprintIndependentOfInternOrder(t *testing.T) {
	names := []string{"alpha", "beta", "gamma", "delta"}
	if order := os.Getenv("IDLOG_FINGERPRINT_ORDER"); order != "" {
		for _, n := range strings.Split(order, ",") {
			value.Str(n)
		}
		r := New("p", 2)
		for i, n := range names {
			r.MustInsert(value.Tuple{value.Str(n), value.Int(int64(i))})
			r.MustInsert(value.Tuple{value.Str(n), value.Str(names[(i+1)%len(names)])})
		}
		fmt.Printf("fingerprint %s\n", r.Fingerprint())
		return
	}
	fingerprint := func(order []string) string {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFingerprintIndependentOfInternOrder$")
		cmd.Env = append(os.Environ(), "IDLOG_FINGERPRINT_ORDER="+strings.Join(order, ","))
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if fp, ok := strings.CutPrefix(line, "fingerprint "); ok {
				return fp
			}
		}
		t.Fatalf("child printed no fingerprint:\n%s", out)
		return ""
	}
	reversed := slices.Clone(names)
	slices.Reverse(reversed)
	if a, b := fingerprint(names), fingerprint(reversed); a != b {
		t.Fatalf("fingerprint %s after interning %v, %s after interning %v", a, names, b, reversed)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	r := emp()
	c := r.Clone()
	c.MustInsert(value.Strs("new", "dept"))
	if r.Len() == c.Len() {
		t.Fatalf("clone shares set structure with original")
	}
}

func TestSortedIsCanonical(t *testing.T) {
	r := emp()
	s := r.Sorted()
	for i := 1; i < len(s); i++ {
		if s[i-1].Compare(s[i]) >= 0 {
			t.Fatalf("Sorted not in canonical order at %d: %v", i, s)
		}
	}
}

func TestStringRendering(t *testing.T) {
	r := FromTuples("p", 1, value.Strs("b"), value.Strs("a"))
	if got := r.String(); got != "p{(a), (b)}" {
		t.Fatalf("String = %q", got)
	}
}

// randomRelation builds a relation with tuples drawn from a small domain,
// giving a good chance of duplicate group keys.
func randomRelation(r *rand.Rand, name string, arity, n int) *Relation {
	rel := New(name, arity)
	for i := 0; i < n; i++ {
		tp := make(value.Tuple, arity)
		for j := range tp {
			if r.Intn(3) == 0 {
				tp[j] = value.Int(int64(r.Intn(4)))
			} else {
				tp[j] = value.Str(fmt.Sprintf("c%d", r.Intn(5)))
			}
		}
		rel.MustInsert(tp)
	}
	return rel
}

func TestGroupsPartitionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		arity := 1 + r.Intn(3)
		rel := randomRelation(r, "p", arity, r.Intn(30))
		var cols []int
		for c := 0; c < arity; c++ {
			if r.Intn(2) == 0 {
				cols = append(cols, c)
			}
		}
		groups := rel.Groups(cols)
		total := 0
		for _, g := range groups {
			total += len(g.Members)
			for _, m := range g.Members {
				if !m.Project(cols).Equal(g.Key) {
					t.Fatalf("member %v not matching group key %v", m, g.Key)
				}
			}
		}
		if total != rel.Len() {
			t.Fatalf("groups cover %d tuples, relation has %d", total, rel.Len())
		}
	}
}

// insertTwins drives Insert on one relation and InsertShared on a twin
// built the same way, checks both against a set of the tuples inserted
// so far, and fails at the first answer, membership, length or
// insertion order that differs.
type insertTwins struct {
	t             *testing.T
	plain, shared *Relation
	model         map[string]bool
}

func newInsertTwins(t *testing.T, mk func() *Relation) insertTwins {
	tw := insertTwins{t: t, plain: mk(), shared: mk(), model: map[string]bool{}}
	for _, tup := range tw.plain.Tuples() {
		tw.model[tup.String()] = true
	}
	return tw
}

func (tw insertTwins) insert(tup value.Tuple) {
	tw.t.Helper()
	got, err := tw.plain.Insert(tup.Clone())
	stored, serr := tw.shared.InsertShared(tup.Clone())
	if err != nil && serr != nil { // arity mismatch, or a frozen relation
		if got || stored != nil {
			tw.t.Fatalf("insert %v failed (%v) but Insert = %v, InsertShared stored %v", tup, err, got, stored)
		}
		return
	}
	want := !tw.model[tup.String()]
	if got != want || (stored != nil) != want || (err == nil) != (serr == nil) {
		tw.t.Fatalf("insert %v: Insert = %v, %v; InsertShared stored %v, %v; want added=%v", tup, got, err, stored, serr, want)
	}
	if stored != nil && !stored.Equal(tup) {
		tw.t.Fatalf("InsertShared(%v) stored %v", tup, stored)
	}
	if want {
		tw.model[tup.String()] = true
	}
}

func (tw insertTwins) contains(tup value.Tuple) {
	tw.t.Helper()
	want := tw.model[tup.String()] && len(tup) == tw.plain.Arity()
	if a, b := tw.plain.Contains(tup), tw.shared.Contains(tup); a != want || b != want {
		tw.t.Fatalf("Contains(%v) = %v (Insert twin), %v (InsertShared twin), want %v", tup, a, b, want)
	}
}

func (tw insertTwins) check() {
	tw.t.Helper()
	a, b := tw.plain.Tuples(), tw.shared.Tuples()
	if len(a) != len(b) || len(a) != len(tw.model) {
		tw.t.Fatalf("Len %d (Insert) vs %d (InsertShared), %d distinct inserted", len(a), len(b), len(tw.model))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			tw.t.Fatalf("position %d: %v (Insert) vs %v (InsertShared)", i, a[i], b[i])
		}
	}
}

// TestInsertHashMatchesInsert checks that Insert, which hashes a tuple
// once for its lookup and its store, agrees with InsertShared and with
// Contains on flat relations, versions of a frozen base and frozen
// relations; that the empty tuple is the one member an arity-0 relation
// can hold; and that Insert and Contains panic on an append-only delta
// relation, which has no primary table.
func TestInsertHashMatchesInsert(t *testing.T) {
	base := func() *Relation {
		r := New("p", 2)
		for i := int64(0); i < 40; i++ {
			r.MustInsert(value.Ints(i, i%7))
		}
		return r.Freeze()
	}
	cases := []struct {
		name string
		make func() *Relation
	}{
		{"empty", func() *Relation { return New("p", 2) }},
		{"sized", func() *Relation { return NewSized("p", 2, 64) }},
		{"version", func() *Relation { return base().Clone() }},
		{"frozen", base},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tw := newInsertTwins(t, tc.make)
			for i := int64(0); i < 60; i++ {
				tup := value.Ints(i%50, (i%50)%7)
				tw.contains(tup)
				tw.insert(tup)
				tw.contains(tup)
			}
			tw.insert(value.Ints(1)) // arity mismatch: both reject
			tw.contains(value.Ints(1, 2, 3))
			tw.check()
		})
	}
	t.Run("arity0", func(t *testing.T) {
		r := New("z", 0)
		var empty value.Tuple // nil: the only arity-0 tuple
		if added, err := r.Insert(empty); !added || err != nil {
			t.Fatalf("first Insert of the empty tuple = %v, %v", added, err)
		}
		if added, _ := r.Insert(empty); added || !r.Contains(empty) || r.Len() != 1 {
			t.Fatalf("second Insert added=%v, Len %d", added, r.Len())
		}
	})
	t.Run("delta", func(t *testing.T) {
		for _, op := range []struct {
			name string
			fn   func(r *Relation)
		}{
			{"Insert", func(r *Relation) { _, _ = r.Insert(value.Ints(1)) }},
			{"Contains", func(r *Relation) { r.Contains(value.Ints(1)) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s on an append-only delta relation did not panic", op.name)
					}
				}()
				op.fn(NewDelta("d", 1, 0))
			}()
		}
	})
}

// FuzzInsertHash drives random insert/membership sequences through
// Insert and InsertShared on twin relations, one of them a version when
// the first byte is odd.
func FuzzInsertHash(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 4, 1})
	f.Add([]byte{1, 9, 9, 13, 200, 17, 33, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mk := func() *Relation { return New("p", 2) }
		if data[0]&1 == 1 {
			mk = func() *Relation {
				r := New("p", 2)
				for i := int64(0); i < 16; i += 3 {
					r.MustInsert(value.Ints(i, i/2))
				}
				return r.Freeze().Clone()
			}
		}
		tw := newInsertTwins(t, mk)
		for _, b := range data[1:] {
			v := int64(b >> 2 & 31)
			tup := value.Ints(v, v/2)
			if b&3 < 2 {
				tw.insert(tup)
			} else {
				tw.contains(tup)
			}
		}
		tw.check()
	})
}
