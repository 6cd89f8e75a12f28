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
	hits := r.ProbeTuples([]int{1}, value.Strs("toys"))
	if len(hits) != 3 {
		t.Fatalf("probe toys: %d hits, want 3", len(hits))
	}
	for _, h := range hits {
		if h[1].String() != "toys" {
			t.Fatalf("probe returned non-matching tuple %v", h)
		}
	}
	if got := r.ProbeTuples([]int{1}, value.Strs("books")); len(got) != 0 {
		t.Fatalf("probe books: %d hits, want 0", len(got))
	}
}

func TestProbeStaysInSyncAfterInsert(t *testing.T) {
	r := emp()
	_ = r.ProbeTuples([]int{1}, value.Strs("toys")) // force index build
	r.MustInsert(value.Strs("kim", "toys"))
	hits := r.ProbeTuples([]int{1}, value.Strs("toys"))
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

func TestUnionInto(t *testing.T) {
	a := FromTuples("a", 1, value.Strs("x"))
	b := FromTuples("b", 1, value.Strs("x"), value.Strs("y"))
	n, err := a.UnionInto(b)
	if err != nil || n != 1 {
		t.Fatalf("UnionInto added %d (%v), want 1", n, err)
	}
	if a.Len() != 2 {
		t.Fatalf("union result has %d tuples", a.Len())
	}
	if _, err := a.UnionInto(New("c", 2)); err == nil {
		t.Fatalf("arity-mismatched union not rejected")
	}
	if n, err := a.UnionInto(nil); n != 0 || err != nil {
		t.Fatalf("nil union should be a no-op")
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

func TestFilter(t *testing.T) {
	r := emp()
	toys := r.Filter("toys_only", func(tp value.Tuple) bool { return tp[1].Equal(value.Str("toys")) })
	if toys.Len() != 3 {
		t.Fatalf("filter kept %d tuples, want 3", toys.Len())
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

// hashTwins drives the hash-carrying operations (InsertHash,
// ContainsHash) on one relation and the hashing ones (Insert,
// InsertShared, Contains) on a twin built the same way, and fails at the
// first answer, length or insertion order that differs.
type hashTwins struct {
	t          *testing.T
	plain, hsh *Relation
}

func (tw hashTwins) insert(tup value.Tuple) {
	tw.t.Helper()
	want, werr := tw.plain.Insert(tup.Clone())
	got, gerr := tw.hsh.InsertHash(tup.Clone(), tup.Hash())
	if got != want || (gerr == nil) != (werr == nil) {
		tw.t.Fatalf("InsertHash(%v) = %v, %v; Insert = %v, %v", tup, got, gerr, want, werr)
	}
}

func (tw hashTwins) insertShared(tup value.Tuple) {
	tw.t.Helper()
	want, werr := tw.plain.InsertShared(tup)
	got, gerr := tw.hsh.InsertHash(tup.Clone(), tup.Hash())
	if got != (want != nil) || (gerr == nil) != (werr == nil) {
		tw.t.Fatalf("InsertHash(%v) = %v, %v; InsertShared stored %v, %v", tup, got, gerr, want, werr)
	}
}

func (tw hashTwins) contains(tup value.Tuple) {
	tw.t.Helper()
	if got, want := tw.hsh.ContainsHash(tup, tup.Hash()), tw.plain.Contains(tup); got != want {
		tw.t.Fatalf("ContainsHash(%v) = %v, Contains = %v", tup, got, want)
	}
}

func (tw hashTwins) check() {
	tw.t.Helper()
	a, b := tw.plain.Tuples(), tw.hsh.Tuples()
	if len(a) != len(b) {
		tw.t.Fatalf("Len %d (hashing) vs %d (hash-carrying)", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			tw.t.Fatalf("position %d: %v (hashing) vs %v (hash-carrying)", i, a[i], b[i])
		}
	}
}

// TestInsertHashMatchesInsert checks the hash-carrying insert and
// membership test against Insert, InsertShared and Contains on flat
// relations, versions of a frozen base and frozen relations, and that
// both panic on an append-only delta relation.
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
			tw := hashTwins{t: t, plain: tc.make(), hsh: tc.make()}
			for i := int64(0); i < 60; i++ {
				tup := value.Ints(i%50, (i%50)%7)
				tw.contains(tup)
				if i%2 == 0 {
					tw.insert(tup)
				} else {
					tw.insertShared(tup)
				}
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
		if added, err := r.InsertHash(empty, empty.Hash()); !added || err != nil {
			t.Fatalf("first InsertHash of the empty tuple = %v, %v", added, err)
		}
		if added, _ := r.InsertHash(empty, empty.Hash()); added || !r.ContainsHash(empty, empty.Hash()) || r.Len() != 1 {
			t.Fatalf("second InsertHash added=%v, Len %d", added, r.Len())
		}
	})
	t.Run("delta", func(t *testing.T) {
		for _, op := range []struct {
			name string
			fn   func(r *Relation)
		}{
			{"InsertHash", func(r *Relation) { _, _ = r.InsertHash(value.Ints(1), value.Ints(1).Hash()) }},
			{"ContainsHash", func(r *Relation) { r.ContainsHash(value.Ints(1), value.Ints(1).Hash()) }},
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

// FuzzInsertHash drives random insert/membership sequences through the
// hash-carrying operations and the hashing ones on twin relations, one
// of them a version when the first byte is odd.
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
		tw := hashTwins{t: t, plain: mk(), hsh: mk()}
		for _, b := range data[1:] {
			v := int64(b >> 2 & 31)
			tup := value.Ints(v, v/2)
			switch b & 3 {
			case 0:
				tw.insert(tup)
			case 1:
				tw.insertShared(tup)
			default:
				tw.contains(tup)
			}
		}
		tw.check()
	})
}
