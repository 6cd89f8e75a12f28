package value

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSortString(t *testing.T) {
	if U.String() != "u" || I.String() != "i" {
		t.Fatalf("Sort.String: got %q %q", U.String(), I.String())
	}
	if Sort(9).String() == "" {
		t.Fatalf("unknown sort should render diagnostically")
	}
}

func TestEqualRespectsSorts(t *testing.T) {
	// The u-constant whose symbol ID happens to equal an integer must not
	// compare equal to that integer.
	u := Str("seven")
	i := Int(int64(u.Sym))
	if u.Equal(i) || i.Equal(u) {
		t.Fatalf("cross-sort values compared equal: %v vs %v", u, i)
	}
	if !Str("x").Equal(Str("x")) {
		t.Fatalf("same u-constant unequal")
	}
	if !Int(3).Equal(Int(3)) || Int(3).Equal(Int(4)) {
		t.Fatalf("integer equality broken")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	vals := []Value{Str("b"), Int(2), Str("a"), Int(-1), Str("c"), Int(0)}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
	// All u-constants (alphabetical) precede all integers (numeric).
	want := []string{"a", "b", "c", "-1", "0", "2"}
	for i, v := range vals {
		if v.String() != want[i] {
			t.Fatalf("sorted order %v, want %v at %d", vals, want, i)
		}
	}
}

func TestCompareConsistentWithEqual(t *testing.T) {
	pool := []Value{Str("a"), Str("b"), Int(0), Int(1), Int(-5)}
	for _, v := range pool {
		for _, w := range pool {
			if (v.Compare(w) == 0) != v.Equal(w) {
				t.Errorf("Compare(%v,%v)==0 disagrees with Equal", v, w)
			}
			if v.Compare(w) != -w.Compare(v) {
				t.Errorf("Compare(%v,%v) not antisymmetric", v, w)
			}
		}
	}
}

func TestTupleKeyInjective(t *testing.T) {
	// Adjacent-boundary cases that a sloppy encoding would conflate.
	tuples := []Tuple{
		{Str("a"), Str("b")},
		{Str("ab")},
		{Int(1), Int(2)},
		{Int(1)},
		{Str("a"), Int(2)},
		{Int(1), Str("b")},
		{},
		{Int(-1)},
		{Int(0)},
	}
	seen := make(map[string]Tuple)
	for _, tp := range tuples {
		k := tp.Key()
		if prev, ok := seen[k]; ok {
			t.Fatalf("key collision between %v and %v", prev, tp)
		}
		seen[k] = tp
	}
}

func TestTupleKeyQuickInjective(t *testing.T) {
	gen := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() Tuple {
			n := r.Intn(5)
			tp := make(Tuple, n)
			for i := range tp {
				if r.Intn(2) == 0 {
					tp[i] = Int(int64(r.Intn(8) - 2))
				} else {
					tp[i] = Str(string(rune('a' + r.Intn(4))))
				}
			}
			return tp
		}
		a, b := mk(), mk()
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTupleCompareLexicographic(t *testing.T) {
	a := Tuple{Str("a"), Int(1)}
	b := Tuple{Str("a"), Int(2)}
	c := Tuple{Str("a")}
	if a.Compare(b) >= 0 {
		t.Fatalf("(a,1) should precede (a,2)")
	}
	if c.Compare(a) >= 0 {
		t.Fatalf("shorter prefix should precede longer tuple")
	}
	if a.Compare(a) != 0 {
		t.Fatalf("tuple unequal to itself")
	}
}

func TestProject(t *testing.T) {
	tp := Tuple{Str("a"), Str("b"), Int(3)}
	got := tp.Project([]int{2, 0})
	want := Tuple{Int(3), Str("a")}
	if !got.Equal(want) {
		t.Fatalf("Project = %v, want %v", got, want)
	}
	if len(tp.Project(nil)) != 0 {
		t.Fatalf("empty projection should be empty tuple")
	}
}

func TestProjectKeyMatchesProjectThenKey(t *testing.T) {
	gen := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		tp := make(Tuple, n)
		for i := range tp {
			if r.Intn(2) == 0 {
				tp[i] = Int(int64(r.Intn(10)))
			} else {
				tp[i] = Str(string(rune('a' + r.Intn(5))))
			}
		}
		var cols []int
		for c := 0; c < n; c++ {
			if r.Intn(2) == 0 {
				cols = append(cols, c)
			}
		}
		var key []byte
		for _, c := range cols {
			key = AppendValueKey(key, tp[c])
		}
		return string(key) == tp.Project(cols).Key()
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	tp := Tuple{Str("a"), Int(1)}
	c := tp.Clone()
	c[0] = Str("z")
	if tp[0].String() != "a" {
		t.Fatalf("Clone shares storage with original")
	}
}

func TestStringRendering(t *testing.T) {
	tp := Tuple{Str("joe"), Str("toys"), Int(0)}
	if got := tp.String(); got != "(joe, toys, 0)" {
		t.Fatalf("Tuple.String = %q", got)
	}
	if got := (Tuple{}).String(); got != "()" {
		t.Fatalf("empty Tuple.String = %q", got)
	}
}

func TestConvenienceConstructors(t *testing.T) {
	if got := Ints(1, 2, 3); len(got) != 3 || !got[2].Equal(Int(3)) {
		t.Fatalf("Ints = %v", got)
	}
	if got := Strs("x", "y"); len(got) != 2 || !got[1].Equal(Str("y")) {
		t.Fatalf("Strs = %v", got)
	}
}
