package value

import (
	"math/rand"
	"testing"

	"idlog/internal/symbol"
)

func TestHashSortTagsDistinct(t *testing.T) {
	// The u-constant with symbol ID n must not collide with the integer n.
	for n := int64(0); n < 64; n++ {
		u := Sym(symbol.ID(n))
		i := Int(n)
		if u.Hash() == i.Hash() {
			t.Fatalf("sort-u %d and sort-i %d hash equal", n, n)
		}
	}
}

func TestProjectHashMatchesProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		tup := make(Tuple, n)
		for i := range tup {
			if rng.Intn(2) == 0 {
				tup[i] = Int(rng.Int63n(50))
			} else {
				tup[i] = Str(string(rune('a' + rng.Intn(26))))
			}
		}
		cols := rng.Perm(n)[:1+rng.Intn(n)]
		if tup.ProjectHash(cols) != tup.Project(cols).Hash() {
			t.Fatalf("ProjectHash(%v, %v) disagrees with projection hash", tup, cols)
		}
	}
}

func TestTupleHashRespectsOrderAndLength(t *testing.T) {
	if (Tuple{Int(1), Int(2)}).Hash() == (Tuple{Int(2), Int(1)}).Hash() {
		t.Fatal("hash is order-independent")
	}
	if (Tuple{}).Hash() == (Tuple{Int(0)}).Hash() {
		t.Fatal("empty tuple collides with (0)")
	}
	if (Tuple{Int(0)}).Hash() == (Tuple{Int(0), Int(0)}).Hash() {
		t.Fatal("(0) collides with (0, 0)")
	}
	a := Tuple{Str("x"), Int(3)}
	b := Tuple{Str("x"), Int(3)}
	if a.Hash() != b.Hash() {
		t.Fatal("equal tuples hash apart")
	}
}

// TestStableHashEqualsHashOnNumbers: on tuples of i-constants only,
// StableHash is Hash, so fingerprints of numeric relations did not move
// when they switched to content hashes.
func TestStableHashEqualsHashOnNumbers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		tup := make(Tuple, rng.Intn(5))
		for i := range tup {
			tup[i] = Int(rng.Int63() - rng.Int63())
		}
		if tup.StableHash() != tup.Hash() {
			t.Fatalf("StableHash(%v) = %x, Hash %x", tup, tup.StableHash(), tup.Hash())
		}
	}
	if (Tuple{Str("x")}).StableHash() == (Tuple{Str("y")}).StableHash() {
		t.Fatal("StableHash ignores a u-constant's name")
	}
}
