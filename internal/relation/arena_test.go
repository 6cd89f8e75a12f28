package relation

import (
	"testing"

	"idlog/internal/value"
)

// TestFrozenViewsStay: a view read from a frozen relation keeps its
// values while versions of the relation (and versions of those, and the
// flat relations they compact into) Remove and Insert: no write to a
// clone reaches the chunks the frozen relation's views point into.
func TestFrozenViewsStay(t *testing.T) {
	for _, arity := range []int{1, 2, 3} {
		dom := newDomain(arity)
		base := New("p", arity)
		for a := 0; a < 300; a++ {
			base.MustInsert(dom.tuple(a))
		}
		base.Freeze()
		views := base.Tuples()
		want := make([]value.Tuple, len(views))
		for i, v := range views {
			want[i] = v.Clone()
		}
		at := base.At(299)

		c := base.Clone()
		for a := 0; a < 300; a += 3 {
			if _, err := c.Remove(dom.tuple(a)); err != nil {
				t.Fatal(err)
			}
			c.MustInsert(dom.tuple(300 + a/3))
		}
		if c.base != nil {
			t.Fatalf("arity %d: 200 changes to a 300-tuple version did not compact it", arity)
		}
		c.Freeze()
		cc := c.Clone()
		for a := 1; a < 300; a += 3 {
			if _, err := cc.Remove(dom.tuple(a)); err != nil {
				t.Fatal(err)
			}
		}
		cc.MustInsert(dom.tuple(511))

		for i, v := range views {
			if !v.Equal(want[i]) || !base.At(i).Equal(want[i]) {
				t.Fatalf("arity %d: frozen view %d reads %s, want %s", arity, i, v, want[i])
			}
		}
		if !at.Equal(want[299]) {
			t.Fatalf("arity %d: frozen At view reads %s, want %s", arity, at, want[299])
		}
		if base.Len() != 300 || c.Len() != 300 || cc.Len() != 201 {
			t.Fatalf("arity %d: lengths %d, %d, %d; want 300, 300, 201", arity, base.Len(), c.Len(), cc.Len())
		}
	}
}

// TestArenaViewsAreCapped: At and Scan hand out views capped at the
// arity, so appending to one copies instead of overwriting the next
// tuple's values.
func TestArenaViewsAreCapped(t *testing.T) {
	r := New("p", 2)
	for i := int64(0); i < 40; i++ {
		r.MustInsert(value.Ints(i, i))
	}
	v := r.At(3)
	if cap(v) != 2 {
		t.Fatalf("cap(At(3)) = %d, want 2", cap(v))
	}
	_ = append(v, value.Int(99))
	if !r.At(4).Equal(value.Ints(4, 4)) {
		t.Fatalf("appending to a view overwrote the next tuple: %s", r.At(4))
	}
}
