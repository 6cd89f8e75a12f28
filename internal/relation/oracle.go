package relation

import (
	"fmt"
	"strings"

	"idlog/internal/value"
)

// colsSig renders a column list as a stable signature string; part of
// oracle group keys, so its format must not change across releases.
func colsSig(cols []int) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	return b.String()
}

// An Oracle chooses ID-functions (§2.1): for every sub-relation it yields
// a permutation assigning tuple-identifiers 0..n-1 to the group's members.
//
// Permutation receives the relation name, the grouping columns, the
// group's key and its size n, and must return a slice perm of length n
// that is a permutation of 0..n-1: the member of canonical rank i (the
// i-th smallest under value.Tuple.Compare) gets tid perm[i]. The oracle
// never sees the members themselves, so the engine can ask for the
// permutation before it orders any member, and then order only the
// ranks it emits. The IDLOG query's non-determinism is exactly the
// oracle's freedom here.
type Oracle interface {
	Permutation(rel string, cols []int, key value.Tuple, n int) []int
}

// SortedOracle assigns tids in canonical tuple order (member i gets tid
// i). This is the engine's deterministic default: every run of a program
// under SortedOracle computes the same perfect model.
type SortedOracle struct{}

// Permutation implements Oracle with the identity permutation.
func (SortedOracle) Permutation(rel string, cols []int, key value.Tuple, n int) []int {
	return identityPerm(n)
}

// ReverseOracle assigns tids in reverse canonical order. It is mainly
// useful in tests that need a second, different deterministic assignment.
type ReverseOracle struct{}

// Permutation implements Oracle.
func (ReverseOracle) Permutation(rel string, cols []int, key value.Tuple, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = n - 1 - i
	}
	return perm
}

// RandomOracle draws a pseudo-random ID-function per group, deterministically
// derived from (seed, relation, columns, group key) so that a run is
// reproducible from its seed and independent of evaluation order. This is
// the oracle behind sampling queries (§3.3).
type RandomOracle struct {
	Seed uint64
}

// Permutation implements Oracle with a Fisher–Yates shuffle seeded from a
// hash of the group's identity.
func (o RandomOracle) Permutation(rel string, cols []int, key value.Tuple, n int) []int {
	h := splitmix64(o.Seed ^ hashString(rel))
	h ^= hashString(colsSig(cols))
	h = splitmix64(h ^ hashString(key.Key()))
	perm := identityPerm(n)
	// Fisher–Yates driven by a splitmix64 stream.
	state := h
	for i := len(perm) - 1; i > 0; i-- {
		state = splitmix64(state)
		j := int(state % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// FixedOracle replays explicitly chosen permutations and is used by the
// model enumerator: each group's choice is addressed by a stable key.
// Groups without an entry fall back to the identity permutation.
type FixedOracle struct {
	// Choices maps GroupKey(rel, cols, key) to a permutation index in the
	// factorial-number-system order (see PermByIndex).
	Choices map[string]uint64
	// Observed, when non-nil, records the group sizes encountered during a
	// run, keyed like Choices. The enumerator uses it to learn the choice
	// space before walking it.
	Observed map[string]int
}

// GroupKey builds the stable addressing key used by FixedOracle.
func GroupKey(rel string, cols []int, key value.Tuple) string {
	return fmt.Sprintf("%s[%s]%s", rel, colsSig(cols), key.Key())
}

// Permutation implements Oracle.
func (o *FixedOracle) Permutation(rel string, cols []int, key value.Tuple, n int) []int {
	k := GroupKey(rel, cols, key)
	if o.Observed != nil {
		o.Observed[k] = n
	}
	return PermByIndex(n, o.Choices[k])
}

// PermByIndex returns the idx-th permutation of 0..n-1 in Lehmer-code
// (factorial number system) order; idx is taken modulo n!.
func PermByIndex(n int, idx uint64) []int {
	if n == 0 {
		return nil
	}
	// Compute the Lehmer digits of idx.
	digits := make([]uint64, n)
	for i := 2; i <= n; i++ {
		digits[n-i] = idx % uint64(i)
		idx /= uint64(i)
	}
	avail := identityPerm(n)
	perm := make([]int, n)
	for i := 0; i < n; i++ {
		d := int(digits[i])
		perm[i] = avail[d]
		avail = append(avail[:d], avail[d+1:]...)
	}
	return perm
}

// Factorial returns n! saturating at math.MaxUint64 (adequate for the
// enumerator's bound checks; enumeration is only feasible for tiny n).
func Factorial(n int) uint64 {
	f := uint64(1)
	for i := uint64(2); i <= uint64(n); i++ {
		next := f * i
		if next/i != f {
			return ^uint64(0)
		}
		f = next
	}
	return f
}

func identityPerm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// splitmix64 is the SplitMix64 mixing function; a tiny, well-distributed
// PRNG step that keeps RandomOracle free of math/rand global state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func hashString(s string) uint64 {
	// FNV-1a, inlined to avoid importing hash/fnv in the hot path.
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// checkPerm validates an oracle's output; the engine calls it so that a
// misbehaving Oracle implementation surfaces as an error, not corruption.
func checkPerm(perm []int, n int) error {
	if len(perm) != n {
		return fmt.Errorf("oracle returned %d tids for group of %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return fmt.Errorf("oracle permutation %v is not a bijection onto 0..%d", perm, n-1)
		}
		seen[p] = true
	}
	return nil
}
