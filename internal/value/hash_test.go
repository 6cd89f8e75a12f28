package value

import (
	"fmt"
	"math/rand"
	"testing"

	"idlog/internal/symbol"
)

func TestHashSortTagsDistinct(t *testing.T) {
	// A u-constant must not collide with the integer equal to its
	// symbol ID, nor with the one equal to its name hash.
	for n := 0; n < 64; n++ {
		u := Str(fmt.Sprintf("c%d", n))
		for _, i := range []Value{Int(int64(u.Sym)), Int(int64(symbol.Hash(u.Sym)))} {
			if u.Hash() == i.Hash() {
				t.Fatalf("u-constant %v and integer %v hash equal", u, i)
			}
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

// TestHashPinned pins tuple hashes to literals. Segment footers store
// them and relation fingerprints and oracle priorities fold them, so a
// change here would invalidate every written segment and move every
// fingerprint and seeded answer. The numeric literals are the hashes
// from before u-constants were hashed by name, and the symbolic ones
// the content hashes of that time: neither moved when the two families
// became one.
func TestHashPinned(t *testing.T) {
	for _, c := range []struct {
		tup  Tuple
		want uint64
	}{
		{Tuple{}, 0x2545f4914f6cdd1d},
		{Tuple{Int(0)}, 0xc9e3447be7b6a336},
		{Tuple{Int(1), Int(2)}, 0x9ba9bf69383321a8},
		{Tuple{Int(-7), Int(1 << 40)}, 0xb3aba2eb74dc49ef},
		{Tuple{Str("a")}, 0x7a3e9aebe618a14a},
		{Tuple{Str("alice"), Str("bob")}, 0xb5ffd9478e7139d7},
		{Tuple{Str("x"), Int(3)}, 0x613aac11799620ea},
		{Tuple{Int(3), Str("x")}, 0xc2387c17142b149a},
	} {
		if got := c.tup.Hash(); got != c.want {
			t.Errorf("%v.Hash() = %#x, want %#x", c.tup, got, c.want)
		}
	}
	if got := (Tuple{Str("alice"), Str("bob"), Int(3)}).ProjectHash([]int{2, 0}); got != 0x304cac87fda92424 {
		t.Errorf("ProjectHash = %#x, want 0x304cac87fda92424", got)
	}
}
