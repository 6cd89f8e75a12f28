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

// An Oracle chooses ID-functions (§2.1): for every sub-relation it
// assigns tuple-identifiers 0..n-1 to the group's n members. The IDLOG
// query's non-determinism is exactly the oracle's freedom here.
//
// The engine asks Numbering once per materialization of relation rel
// grouped on the 0-based columns cols, and numbers every group of that
// materialization with the answer.
type Oracle interface {
	Numbering(rel string, cols []int) Numbering
}

// A Numbering is an oracle's ID-function for every group of one
// relation on one column list. It takes one of two forms.
//
// A priority numbering (Perm nil) ranks members by content: member t
// has as priority the hashes of its values (value.Value.Hash) folded
// in order into Salt, and its tid is its rank within its group under
// (priority, canonical order), where the canonical order
// (value.Tuple.Compare) only breaks the ties of a hash collision.
// A priority reads nothing but t and the salt, so a group's tids depend
// only on its members, never on the rest of the relation or on intern
// order, and adding or removing one member moves at most one tuple
// into or out of the tids below any bound. A bounded ID-literal keeps
// the k lowest priorities of each group in one pass, without ordering
// or even collecting the group.
//
// A rank numbering (Perm non-nil) numbers canonical ranks: Perm(key, n)
// returns, for the group with the given key and n members, a
// permutation perm of 0..n-1, and the member of canonical rank i (the
// i-th smallest under value.Tuple.Compare) gets tid perm[i]. It never
// sees the members, so a bounded ID-literal orders only the ranks that
// receive a tid under the bound.
type Numbering struct {
	// Salt keys the priorities of a priority numbering.
	Salt uint64
	// Perm, when non-nil, makes the numbering a rank numbering.
	Perm func(key value.Tuple, n int) []int
}

// SortedOracle assigns tids in canonical tuple order (member i gets tid
// i). This is the engine's deterministic default: every run of a program
// under SortedOracle computes the same perfect model.
type SortedOracle struct{}

// Numbering implements Oracle with the identity permutation.
func (SortedOracle) Numbering(string, []int) Numbering {
	return Numbering{Perm: func(_ value.Tuple, n int) []int { return identityPerm(n) }}
}

// ReverseOracle assigns tids in reverse canonical order. It is mainly
// useful in tests that need a second, different deterministic assignment.
type ReverseOracle struct{}

// Numbering implements Oracle.
func (ReverseOracle) Numbering(string, []int) Numbering {
	return Numbering{Perm: func(_ value.Tuple, n int) []int {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = n - 1 - i
		}
		return perm
	}}
}

// RandomOracle draws a pseudo-random ID-function per group: a priority
// numbering salted from (seed, relation, columns). Every member's
// priority is a hash of the salt and the member's content, so a run is
// reproducible from its seed and independent of evaluation, insertion
// and intern order, and the ranks of a group are a uniformly random
// permutation. This is the oracle behind sampling queries (§3.3).
type RandomOracle struct {
	Seed uint64
}

// Numbering implements Oracle.
func (o RandomOracle) Numbering(rel string, cols []int) Numbering {
	h := splitmix64(o.Seed ^ hashString(rel))
	for _, c := range cols {
		h = splitmix64(h ^ uint64(c))
	}
	return Numbering{Salt: h}
}

// FixedOracle replays explicitly chosen permutations and is used by the
// model enumerator: each group's choice is addressed by a stable key.
// Groups without an entry fall back to the identity permutation.
type FixedOracle struct {
	// Choices maps a group, keyed by its relation, grouping columns and
	// key (see groupPrefix), to a permutation index in the
	// factorial-number-system order (see PermByIndex).
	Choices map[string]uint64
	// Observed, when non-nil, records the group sizes encountered during a
	// run, keyed like Choices. The enumerator uses it to learn the choice
	// space before walking it.
	Observed map[string]int
}

// groupPrefix is the part of a FixedOracle.Choices key shared by every
// group of rel on cols; the group's key.Key() completes it.
func groupPrefix(rel string, cols []int) string {
	return rel + "[" + colsSig(cols) + "]"
}

// Numbering implements Oracle.
func (o *FixedOracle) Numbering(rel string, cols []int) Numbering {
	prefix := groupPrefix(rel, cols)
	return Numbering{Perm: func(key value.Tuple, n int) []int {
		k := prefix + key.Key()
		if o.Observed != nil {
			o.Observed[k] = n
		}
		return PermByIndex(n, o.Choices[k])
	}}
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

// splitmix64 is the SplitMix64 mixing function: one well-distributed
// step that RandomOracle derives its salts with.
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
