package value

// 64-bit hashing over interned values. The engine's tuple store keys its
// primary and secondary indexes on these hashes instead of marshaled
// byte strings, so the functions here are the hot path of every insert,
// duplicate check, and probe. Requirements:
//
//   - Equal values (tuples) hash equal; the sort tag is mixed in so the
//     integer 7 and a u-constant whose name hashes to 7 hash differently
//     (mirroring the keyU/keyI tags of the string encoding).
//   - ProjectHash(cols) equals Project(cols).Hash() without materializing
//     the projection, so probe keys can be hashed allocation-free.
//   - Hashes are keyed on content: a u-constant mixes the hash of its
//     name that the symbol table computed at intern, never its symbol
//     ID, and no hash here has a per-run seed. So a value or tuple
//     hashes alike in every process, whatever order it interned its
//     constants in, and anything stored or compared across processes
//     (segment footers, relation fingerprints, oracle priorities) can
//     use these hashes directly.
//
// Collisions are possible in principle (the store resolves them with
// Tuple.Equal checks and counts them), but the mixer is a full-period
// splitmix64 finalizer, so they are vanishingly rare in practice.

import "idlog/internal/symbol"

// hash tags separate the two sorts and seed the per-length tuple basis.
const (
	hashTagU   uint64 = 0x9E3779B97F4A7C15 // golden-ratio increment
	hashTagI   uint64 = 0xC2B2AE3D27D4EB4F
	hashLenMul uint64 = 0xFF51AFD7ED558CCD
	hashBasis  uint64 = 0x2545F4914F6CDD1D
)

// mix64 is the splitmix64 finalizer: a bijective mixer whose output bits
// all depend on all input bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Hash returns a 64-bit hash of v's content: an i-constant's number,
// or a u-constant's name through the hash the symbol table computed at
// intern, tagged apart by sort. Equal values hash equal, in every
// process. Both sorts share one mix64 call so that Hash stays within
// the inliner's budget and inlines into Tuple.Hash and ProjectHash.
func (v Value) Hash() uint64 {
	x := uint64(v.Num) ^ hashTagI
	if v.Sort == U {
		x = symbol.Hash(v.Sym) ^ hashTagU
	}
	return mix64(x)
}

// tupleHashSeed gives every tuple length its own basis so that the empty
// tuple, (0), and (0, 0) all hash apart, and a relation containing the
// nullary tuple is distinguishable from an empty one.
func tupleHashSeed(n int) uint64 {
	return uint64(n)*hashLenMul + hashBasis
}

// Hash returns an order-dependent 64-bit hash of the tuple. Equal tuples
// hash equal, in every process.
func (t Tuple) Hash() uint64 {
	h := tupleHashSeed(len(t))
	for _, v := range t {
		h = mix64(h ^ v.Hash())
	}
	return h
}

// ProjectHash hashes the projection of t onto cols without materializing
// it: t.ProjectHash(cols) == t.Project(cols).Hash().
func (t Tuple) ProjectHash(cols []int) uint64 {
	h := tupleHashSeed(len(cols))
	for _, c := range cols {
		h = mix64(h ^ t[c].Hash())
	}
	return h
}

// CombineHash folds x into a running order-dependent hash h; the
// building block for set fingerprints built from sorted element hashes.
func CombineHash(h, x uint64) uint64 {
	return mix64(h ^ x)
}

// SetHashSeed returns the basis for combining n sorted element hashes
// with CombineHash; seeding with the cardinality keeps the empty set,
// {()} and {(0)} apart.
func SetHashSeed(n int) uint64 {
	return tupleHashSeed(n) ^ hashLenMul
}
