package relation

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"idlog/internal/value"
)

// validateID checks that idrel is an ID-relation of base on cols: its
// projection onto the first arity columns is exactly base, and within
// every sub-relation the tids form a bijection onto {0..n-1}. It returns
// nil if the invariant holds.
func validateID(idrel, base *Relation, cols []int) error {
	if idrel.arity != base.arity+1 {
		return fmt.Errorf("ID-relation arity %d, want %d", idrel.arity, base.arity+1)
	}
	if idrel.Len() != base.Len() {
		return fmt.Errorf("ID-relation has %d tuples, base has %d", idrel.Len(), base.Len())
	}
	baseCols := identityCols(base.arity)
	proj := idrel.Project(base.name, baseCols)
	if !proj.Equal(base) {
		return fmt.Errorf("ID-relation projection differs from base relation")
	}
	// Per group, tids must be a bijection onto {0..n-1}.
	for _, g := range idrel.Groups(cols) {
		seen := make(map[int64]bool, len(g.Members))
		for _, t := range g.Members {
			tid := t[len(t)-1]
			if !tid.IsInt() {
				return fmt.Errorf("tid %v is not of sort i", tid)
			}
			if tid.Num < 0 || tid.Num >= int64(len(g.Members)) {
				return fmt.Errorf("tid %d out of range for group of %d", tid.Num, len(g.Members))
			}
			if seen[tid.Num] {
				return fmt.Errorf("tid %d repeated within group %v", tid.Num, g.Key)
			}
			seen[tid.Num] = true
		}
	}
	return nil
}

// countIDFunctions returns the number of distinct ID-relations of r on
// cols, i.e. the product over groups of |group|! (Example 1 of the paper
// has two). Saturates at MaxUint64.
func countIDFunctions(r *Relation, cols []int) uint64 {
	total := uint64(1)
	for _, g := range r.Groups(cols) {
		f := Factorial(len(g.Members))
		next := total * f
		if f != 0 && next/f != total {
			return ^uint64(0)
		}
		total = next
	}
	return total
}

// groupKey builds the key FixedOracle.Choices addresses a group by.
func groupKey(rel string, cols []int, key value.Tuple) string {
	return groupPrefix(rel, cols) + key.Key()
}

// example1 is the relation r = {(a,c),(a,d),(b,c)} of Example 1.
func example1() *Relation {
	return FromTuples("r", 2,
		value.Strs("a", "c"),
		value.Strs("a", "d"),
		value.Strs("b", "c"),
	)
}

func TestExample1HasTwoIDRelations(t *testing.T) {
	// Example 1: grouping by the first attribute yields sub-relations
	// {(a,c),(a,d)} and {(b,c)}, hence exactly two ID-relations.
	r := example1()
	if got := countIDFunctions(r, []int{0}); got != 2 {
		t.Fatalf("countIDFunctions = %d, want 2", got)
	}
	// Enumerate both and check they are the two sets from the paper.
	want := map[string]bool{
		FromTuples("r", 3,
			append(value.Strs("a", "c"), value.Int(1)),
			append(value.Strs("a", "d"), value.Int(0)),
			append(value.Strs("b", "c"), value.Int(0)),
		).Fingerprint(): false,
		FromTuples("r", 3,
			append(value.Strs("a", "c"), value.Int(0)),
			append(value.Strs("a", "d"), value.Int(1)),
			append(value.Strs("b", "c"), value.Int(0)),
		).Fingerprint(): false,
	}
	oracles := []Oracle{SortedOracle{}, ReverseOracle{}}
	for _, o := range oracles {
		idr, err := MaterializeIDBounded(r, "r[1]", []int{0}, o, 0)
		if err != nil {
			t.Fatal(err)
		}
		fp := idr.Fingerprint()
		if _, ok := want[fp]; !ok {
			t.Fatalf("materialized ID-relation %v is not one of Example 1's", idr)
		}
		want[fp] = true
	}
	for fp, seen := range want {
		if !seen {
			t.Fatalf("one of Example 1's ID-relations was never produced (%q)", fp)
		}
	}
}

func TestMaterializeValidates(t *testing.T) {
	r := emp()
	for _, o := range []Oracle{SortedOracle{}, ReverseOracle{}, RandomOracle{Seed: 42}} {
		idr, err := MaterializeIDBounded(r, "emp[2]", []int{1}, o, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := validateID(idr, r, []int{1}); err != nil {
			t.Fatalf("oracle %T produced invalid ID-relation: %v", o, err)
		}
	}
}

func TestMaterializeRejectsBadColumns(t *testing.T) {
	if _, err := MaterializeIDBounded(emp(), "x", []int{5}, SortedOracle{}, 0); err == nil {
		t.Fatalf("out-of-range grouping column not rejected")
	}
}

type brokenOracle struct{}

func (brokenOracle) Numbering(string, []int) Numbering {
	return Numbering{Perm: func(value.Tuple, int) []int { return []int{0, 0, 0} }}
}

func TestMaterializeRejectsBrokenOracle(t *testing.T) {
	if _, err := MaterializeIDBounded(emp(), "x", []int{1}, brokenOracle{}, 0); err == nil {
		t.Fatalf("non-bijective oracle output not rejected")
	}
}

func TestRandomOracleIsSeedDeterministic(t *testing.T) {
	r := emp()
	a, err := MaterializeIDBounded(r, "e", []int{1}, RandomOracle{Seed: 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MaterializeIDBounded(r, "e", []int{1}, RandomOracle{Seed: 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatalf("same seed produced different ID-relations")
	}
	// Different seeds should (for this input) differ at least sometimes.
	diff := false
	for seed := uint64(0); seed < 16; seed++ {
		c, err := MaterializeIDBounded(r, "e", []int{1}, RandomOracle{Seed: seed}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(c) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatalf("16 different seeds all produced the identical ID-relation; oracle is not mixing")
	}
}

func TestPermByIndexEnumeratesAllPermutations(t *testing.T) {
	for n := 0; n <= 5; n++ {
		f := Factorial(n)
		seen := make(map[string]bool)
		for idx := uint64(0); idx < f; idx++ {
			perm := PermByIndex(n, idx)
			if err := checkPerm(perm, n); err != nil {
				t.Fatalf("PermByIndex(%d,%d): %v", n, idx, err)
			}
			key := ""
			for _, p := range perm {
				key += string(rune('0' + p))
			}
			if seen[key] {
				t.Fatalf("PermByIndex(%d,%d) repeated permutation %s", n, idx, key)
			}
			seen[key] = true
		}
		if uint64(len(seen)) != f {
			t.Fatalf("n=%d: enumerated %d permutations, want %d", n, len(seen), f)
		}
	}
}

func TestPermByIndexWrapsModuloFactorial(t *testing.T) {
	a := PermByIndex(3, 1)
	b := PermByIndex(3, 1+6)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("PermByIndex should wrap mod n!: %v vs %v", a, b)
		}
	}
}

func TestFactorial(t *testing.T) {
	cases := map[int]uint64{0: 1, 1: 1, 2: 2, 5: 120, 10: 3628800}
	for n, want := range cases {
		if got := Factorial(n); got != want {
			t.Fatalf("Factorial(%d) = %d, want %d", n, got, want)
		}
	}
	if Factorial(30) != ^uint64(0) {
		t.Fatalf("Factorial should saturate on overflow")
	}
}

func TestCountIDFunctions(t *testing.T) {
	r := emp() // groups of size 3 (toys) and 2 (shoes): 3! * 2! = 12
	if got := countIDFunctions(r, []int{1}); got != 12 {
		t.Fatalf("countIDFunctions = %d, want 12", got)
	}
	// Ungrouped: 5! = 120 assignments.
	if got := countIDFunctions(r, nil); got != 120 {
		t.Fatalf("countIDFunctions(p[]) = %d, want 120", got)
	}
}

func TestFixedOracleWalksDistinctIDRelations(t *testing.T) {
	r := example1()
	o := &FixedOracle{Choices: map[string]uint64{}, Observed: map[string]int{}}
	// First run to observe groups.
	if _, err := MaterializeIDBounded(r, "r", []int{0}, o, 0); err != nil {
		t.Fatal(err)
	}
	if len(o.Observed) != 2 {
		t.Fatalf("observed %d groups, want 2", len(o.Observed))
	}
	// Walk the full odometer: product of factorials = 2.
	fps := make(map[string]bool)
	key := groupKey("r", []int{0}, value.Strs("a"))
	for idx := uint64(0); idx < 2; idx++ {
		o.Choices[key] = idx
		idr, err := MaterializeIDBounded(r, "r", []int{0}, o, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := validateID(idr, r, []int{0}); err != nil {
			t.Fatal(err)
		}
		fps[idr.Fingerprint()] = true
	}
	if len(fps) != 2 {
		t.Fatalf("FixedOracle odometer visited %d distinct ID-relations, want 2", len(fps))
	}
}

func TestValidateIDCatchesCorruption(t *testing.T) {
	r := emp()
	idr, err := MaterializeIDBounded(r, "e", []int{1}, SortedOracle{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong arity.
	if err := validateID(r, r, []int{1}); err == nil {
		t.Fatalf("arity corruption not caught")
	}
	// Tamper: shift a tid out of range.
	bad := New("e", 3)
	for i, tp := range idr.Tuples() {
		c := tp.Clone()
		if i == 0 {
			c[2] = value.Int(99)
		}
		bad.MustInsert(c)
	}
	if err := validateID(bad, r, []int{1}); err == nil {
		t.Fatalf("out-of-range tid not caught")
	}
}

func TestMaterializeIDPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		arity := 1 + rng.Intn(3)
		rel := randomRelation(rng, "p", arity, rng.Intn(40))
		var cols []int
		for c := 0; c < arity; c++ {
			if rng.Intn(2) == 0 {
				cols = append(cols, c)
			}
		}
		for _, o := range []Oracle{SortedOracle{}, RandomOracle{Seed: uint64(trial)}} {
			idr, err := MaterializeIDBounded(rel, "p_id", cols, o, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := validateID(idr, rel, cols); err != nil {
				t.Fatalf("trial %d oracle %T: %v", trial, o, err)
			}
		}
	}
}

// refGroups is the string-keyed grouping that Groups replaced: a map
// keyed by the projected key, then every group sorted. It is the reference the
// hash grouping must reproduce exactly.
func refGroups(r *Relation, cols []int) []Group {
	byKey := make(map[string]*Group)
	var order []string
	r.Scan(0, -1, func(_ int, t value.Tuple) bool {
		k := t.Project(cols).Key()
		g, ok := byKey[k]
		if !ok {
			g = &Group{Key: t.Project(cols)}
			byKey[k] = g
			order = append(order, k)
		}
		g.Members = append(g.Members, t)
		return true
	})
	out := make([]Group, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	for i := range out {
		ms := out[i].Members
		sort.Slice(ms, func(a, b int) bool { return ms[a].Compare(ms[b]) < 0 })
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key.Compare(out[b].Key) < 0 })
	return out
}

// refMaterialize is the sort-everything materializer: every group is
// sorted whole and numbered, and the tuples with a tid under the bound
// are emitted. Under a rank numbering the oracle numbers the group's
// canonical members, emitted in canonical order; under a priority
// numbering each member's priority is hashed from its rendered values,
// the group is sorted on (priority, canonical order), and members are
// emitted in that order, tid 0 first.
func refMaterialize(r *Relation, name string, cols []int, o Oracle, bound int) (*Relation, error) {
	for _, c := range cols {
		if c < 0 || c >= r.arity {
			return nil, fmt.Errorf("grouping column %d out of range", c+1)
		}
	}
	nb := o.Numbering(r.name, cols)
	out := New(name, r.arity+1)
	for _, g := range refGroups(r, cols) {
		if nb.Perm == nil {
			ms := slices.Clone(g.Members)
			sort.SliceStable(ms, func(a, b int) bool {
				pa, pb := refPriority(nb.Salt, ms[a]), refPriority(nb.Salt, ms[b])
				return pa < pb || pa == pb && ms[a].Compare(ms[b]) < 0
			})
			for tid, t := range ms {
				if bound == 0 || tid < bound {
					out.MustInsert(append(t.Clone(), value.Int(int64(tid))))
				}
			}
			continue
		}
		perm := nb.Perm(g.Key, len(g.Members))
		if err := checkPerm(perm, len(g.Members)); err != nil {
			return nil, err
		}
		for i, t := range g.Members {
			if bound > 0 && perm[i] >= bound {
				continue
			}
			out.MustInsert(append(t.Clone(), value.Int(int64(perm[i]))))
		}
	}
	return out, nil
}

// refPriority is a member's priority computed from the definition: the
// salt folded with each value's content hash, a u-constant's from its
// name (FNV-1a and the splitmix64 finalizer) and an i-constant's from
// its number, each tagged by sort and mixed.
func refPriority(salt uint64, t value.Tuple) uint64 {
	mix := func(x uint64) uint64 {
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		return x ^ x>>31
	}
	h := salt
	for _, v := range t {
		var c uint64
		if v.IsInt() {
			c = mix(uint64(v.Num) ^ 0xC2B2AE3D27D4EB4F)
		} else {
			f := uint64(1469598103934665603)
			for _, b := range []byte(v.String()) {
				f ^= uint64(b)
				f *= 1099511628211
			}
			c = mix(mix(f) ^ 0x9E3779B97F4A7C15)
		}
		h = mix(h ^ c)
	}
	return h
}

// sameTuples reports the first difference between two tuple sequences,
// order included.
func sameTuples(got, want []value.Tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("tuple %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkAgainstReference materializes r on cols under the oracle made by
// mk both ways and requires the same tuples in the same insertion
// order; FixedOracles must also observe the same groups.
func checkAgainstReference(t testing.TB, r *Relation, cols []int, mk func() Oracle, bound int) {
	t.Helper()
	o, ro := mk(), mk()
	got, err := MaterializeIDBounded(r, "p_id", cols, o, bound)
	want, rerr := refMaterialize(r, "p_id", cols, ro, bound)
	if (err != nil) != (rerr != nil) {
		t.Fatalf("cols %v bound %d: error %v, reference error %v", cols, bound, err, rerr)
	}
	if err != nil {
		return
	}
	if got.Name() != want.Name() || got.Arity() != want.Arity() {
		t.Fatalf("cols %v bound %d: relation %s/%d, want %s/%d", cols, bound, got.Name(), got.Arity(), want.Name(), want.Arity())
	}
	if err := sameTuples(got.Tuples(), want.Tuples()); err != nil {
		t.Fatalf("cols %v bound %d oracle %T: %v", cols, bound, o, err)
	}
	if fo, ok := o.(*FixedOracle); ok {
		if !maps.Equal(fo.Observed, ro.(*FixedOracle).Observed) {
			t.Fatalf("cols %v bound %d: FixedOracle observed %v, reference %v", cols, bound, fo.Observed, ro.(*FixedOracle).Observed)
		}
	}
}

// checkGroupsAgainstReference requires Groups to match refGroups key
// for key and member for member.
func checkGroupsAgainstReference(t testing.TB, r *Relation, cols []int) {
	t.Helper()
	got, want := r.Groups(cols), refGroups(r, cols)
	if len(got) != len(want) {
		t.Fatalf("cols %v: %d groups, want %d", cols, len(got), len(want))
	}
	for i := range got {
		if !got[i].Key.Equal(want[i].Key) {
			t.Fatalf("cols %v: group %d key %v, want %v", cols, i, got[i].Key, want[i].Key)
		}
		if err := sameTuples(got[i].Members, want[i].Members); err != nil {
			t.Fatalf("cols %v: group %v: %v", cols, got[i].Key, err)
		}
	}
}

// idValue draws a constant: u-constants whose names share a long
// prefix (so comparisons read deep into the names), or small integers
// of either sign.
func idValue(rng *rand.Rand) value.Value {
	if rng.Intn(2) == 0 {
		return value.Int(int64(rng.Intn(41) - 20))
	}
	return value.Str(fmt.Sprintf("constant_with_a_long_shared_prefix_%d", rng.Intn(40)))
}

// idCaseTuples draws the tuples of a relation of the given arity with a
// few groups on cols, each aimed at a size between 1 and 300 (a group
// can come out smaller when a draw repeats a tuple, or larger when two
// keys coincide).
func idCaseTuples(rng *rand.Rand, arity int, cols []int) []value.Tuple {
	var out []value.Tuple
	for g := 1 + rng.Intn(4); g > 0; g-- {
		key := make(value.Tuple, arity)
		for i := range key {
			key[i] = idValue(rng)
		}
		size := []int{1, 2, 3, 13, 1 + rng.Intn(300)}[rng.Intn(5)]
		for k := 0; k < size; k++ {
			t := make(value.Tuple, arity)
			for i := range t {
				t[i] = idValue(rng)
			}
			for _, c := range cols {
				t[c] = key[c]
			}
			out = append(out, t)
		}
	}
	return out
}

// idRepresentations holds the tuples as a flat relation, a frozen one,
// and a version of a frozen base with both an overlay and a patch.
func idRepresentations(tuples []value.Tuple, arity int) map[string]*Relation {
	flat := FromTuples("p", arity, tuples...)
	frozen := FromTuples("p", arity, tuples...).Freeze()
	// The base holds all but the last few tuples plus two extras; the
	// version removes the extras (patching the base positions the
	// swap-remove refills) and inserts the rest (its overlay).
	split := len(tuples) - min(len(tuples), 3)
	extras := []value.Tuple{make(value.Tuple, arity), make(value.Tuple, arity)}
	for i := range extras[0] {
		extras[0][i] = value.Str("extra_a")
		extras[1][i] = value.Str("extra_b")
	}
	base := FromTuples("p", arity, extras[0])
	for _, t := range tuples[:split] {
		base.MustInsert(t)
	}
	base.MustInsert(extras[1])
	ver := base.Freeze().Clone()
	for _, t := range extras {
		if _, err := ver.Remove(t); err != nil {
			panic(err)
		}
	}
	for _, t := range tuples[split:] {
		ver.MustInsert(t)
	}
	return map[string]*Relation{"flat": flat, "frozen": frozen, "version": ver}
}

// idOracles returns constructors for the four shipped oracles; the
// FixedOracle draws a random choice for most of the groups of r on cols.
func idOracles(rng *rand.Rand, r *Relation, cols []int) []func() Oracle {
	seed := rng.Uint64()
	choices := map[string]uint64{}
	for _, g := range refGroups(r, cols) {
		if rng.Intn(4) > 0 {
			choices[groupKey(r.Name(), cols, g.Key)] = rng.Uint64()
		}
	}
	return []func() Oracle{
		func() Oracle { return SortedOracle{} },
		func() Oracle { return ReverseOracle{} },
		func() Oracle { return RandomOracle{Seed: seed} },
		func() Oracle { return &FixedOracle{Choices: choices, Observed: map[string]int{}} },
	}
}

// idBounds lists 0, 1, 2 and n-1, n, n+1 for the smallest and largest
// group sizes n of r on cols.
func idBounds(r *Relation, cols []int) []int {
	bounds := []int{0, 1, 2}
	if gs := refGroups(r, cols); len(gs) > 0 {
		lo, hi := len(gs[0].Members), len(gs[0].Members)
		for _, g := range gs {
			lo, hi = min(lo, len(g.Members)), max(hi, len(g.Members))
		}
		bounds = append(bounds, lo-1, lo, lo+1, hi-1, hi, hi+1)
	}
	slices.Sort(bounds)
	return slices.Compact(bounds)
}

// TestMaterializeIDMatchesSortEverything checks the selecting
// materializer against refMaterialize tuple for tuple, in insertion
// order, over arities 1-4, grouping columns from none to all (in any
// order), group sizes 1-300, bounds around every group size, the four
// shipped oracles, and flat, frozen and versioned relations; and Groups
// against refGroups on the same relations.
func TestMaterializeIDMatchesSortEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	versions := 0
	for trial := 0; trial < 120; trial++ {
		arity := 1 + rng.Intn(4)
		var cols []int
		switch trial % 4 {
		case 0: // no grouping columns: one group
		case 1:
			cols = identityCols(arity)
		default:
			for _, c := range rng.Perm(arity) {
				if rng.Intn(2) == 0 {
					cols = append(cols, c)
				}
			}
		}
		tuples := idCaseTuples(rng, arity, cols)
		for name, r := range idRepresentations(tuples, arity) {
			if name == "version" && len(r.patch) > 0 && r.mem.n > 0 {
				versions++
			}
			checkGroupsAgainstReference(t, r, cols)
			for _, mk := range idOracles(rng, r, cols) {
				for _, bound := range idBounds(r, cols) {
					checkAgainstReference(t, r, cols, mk, bound)
				}
			}
		}
	}
	if versions == 0 {
		t.Fatalf("no case exercised a version with both an overlay and a patch")
	}
}

// FuzzMaterializeID compares the selecting materializer with
// refMaterialize over fuzzed tuples, grouping columns, bound and oracle.
// Byte 0 picks the arity and the oracle, byte 1 the grouping columns,
// byte 2 the bound, bytes 3-10 the oracle seed; every later byte is one
// value (even: a u-constant, odd: a signed integer).
func FuzzMaterializeID(f *testing.F) {
	f.Add([]byte{0x11, 0x01, 2, 1, 2, 3, 4, 5, 6, 7, 8, 2, 4, 2, 6, 3, 5, 2, 8})
	f.Add([]byte{0x23, 0x06, 1, 9, 9, 9, 9, 9, 9, 9, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0x30, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 254, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 11 {
			return
		}
		if len(data) > 2048 {
			data = data[:2048]
		}
		arity := 1 + int(data[0]&3)
		var cols []int
		for c := 0; c < arity; c++ {
			if data[1]&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		if data[1]&0x80 != 0 {
			slices.Reverse(cols)
		}
		bound := int(data[2] % 8)
		rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(data[3:11]))))
		var tuples []value.Tuple
		for rest := data[11:]; len(rest) >= arity; rest = rest[arity:] {
			tp := make(value.Tuple, arity)
			for i, b := range rest[:arity] {
				if b&1 == 0 {
					tp[i] = value.Str(fmt.Sprintf("constant_with_a_long_shared_prefix_%d", b>>1%16))
				} else {
					tp[i] = value.Int(int64(int8(b) >> 1))
				}
			}
			tuples = append(tuples, tp)
		}
		for _, r := range idRepresentations(tuples, arity) {
			mk := idOracles(rng, r, cols)[int(data[0]>>4)%4]
			checkAgainstReference(t, r, cols, mk, bound)
			checkGroupsAgainstReference(t, r, cols)
		}
	})
}

// idlitRelation is the batch_idlit benchmark's emp shape: depts groups
// of perDept employees on column 1, inserted in shuffled order.
func idlitRelation(depts, perDept int) *Relation {
	rng := rand.New(rand.NewSource(1))
	r := New("emp", 2)
	for _, i := range rng.Perm(depts * perDept) {
		r.MustInsert(value.Tuple{value.Str(fmt.Sprintf("emp%05d", i)), value.Str(fmt.Sprintf("dept%03d", i%depts))})
	}
	return r
}

// TestMaterializeBoundedAllocs pins the allocation count of a bounded
// materialization with 50 groups of 100 under the seeded oracle: the
// one-pass top-k allocates per call and per growth of its group table,
// never per group or per base tuple.
func TestMaterializeBoundedAllocs(t *testing.T) {
	r := idlitRelation(50, 100)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := MaterializeIDBounded(r, "emp[2]", []int{1}, RandomOracle{Seed: 7}, 2); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations for %d base tuples", allocs, r.Len())
	if allocs > 64 {
		t.Fatalf("%.0f allocations for %d base tuples in 50 groups, want at most 64", allocs, r.Len())
	}
}

// restrict returns the tuples of an ID-relation whose tid is below
// bound, in insertion order.
func restrict(idr *Relation, bound int) []value.Tuple {
	var out []value.Tuple
	for _, t := range idr.Tuples() {
		if t[len(t)-1].Num < int64(bound) {
			out = append(out, t)
		}
	}
	return out
}

// TestBoundedIsRestrictionOfFull checks, for rank and priority oracles
// alike, that an ID-relation pruned at every bound from 1 to past the
// largest group holds exactly the full ID-relation's tuples with a tid
// under the bound, in the same order: the bounds up to maxTopK take
// the one-pass top-k under the seeded oracle, the larger ones sort
// each group.
func TestBoundedIsRestrictionOfFull(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		arity := 1 + rng.Intn(3)
		var cols []int
		for _, c := range rng.Perm(arity) {
			if rng.Intn(2) == 0 {
				cols = append(cols, c)
			}
		}
		r := FromTuples("p", arity, idCaseTuples(rng, arity, cols)...)
		for _, mk := range idOracles(rng, r, cols) {
			full, err := MaterializeIDBounded(r, "p_id", cols, mk(), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, bound := range []int{1, 2, 3, maxTopK, maxTopK + 1, 20, 400} {
				pruned, err := MaterializeIDBounded(r, "p_id", cols, mk(), bound)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameTuples(pruned.Tuples(), restrict(full, bound)); err != nil {
					t.Fatalf("trial %d oracle %T cols %v bound %d: %v", trial, mk(), cols, bound, err)
				}
			}
		}
	}
}

// TestPriorityGroupsAreLocal checks that under the seeded oracle a
// group's tids depend on its members alone: every group, presented as
// a relation of its own in a shuffled insertion order, materializes to
// exactly its tuples in the whole relation's ID-relation, at every
// bound.
func TestPriorityGroupsAreLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		arity := 1 + rng.Intn(3)
		cols := []int{rng.Intn(arity)}
		r := FromTuples("p", arity, idCaseTuples(rng, arity, cols)...)
		o := RandomOracle{Seed: rng.Uint64()}
		for _, bound := range []int{0, 1, 2, 5, 12} {
			whole, err := MaterializeIDBounded(r, "p_id", cols, o, bound)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range refGroups(r, cols) {
				members := slices.Clone(g.Members)
				rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
				alone, err := MaterializeIDBounded(FromTuples("p", arity, members...), "p_id", cols, o, bound)
				if err != nil {
					t.Fatal(err)
				}
				var want []value.Tuple
				for _, tp := range whole.Tuples() {
					if tp.Project(cols).Equal(g.Key) {
						want = append(want, tp)
					}
				}
				if err := sameTuples(alone.Tuples(), want); err != nil {
					t.Fatalf("trial %d bound %d group %v alone: %v", trial, bound, g.Key, err)
				}
			}
		}
	}
}

// TestRandomOracleTidZeroIsUniform draws the tid-0 member of one
// five-member group under seeds 0-9 999 and requires the counts to pass
// a χ² test at 4 degrees of freedom against 18.47, the p = 0.001
// critical value. The seeds are fixed, so the test cannot flake.
func TestRandomOracleTidZeroIsUniform(t *testing.T) {
	const seeds, k = 10000, 5
	r := New("emp", 2)
	for i := 0; i < k; i++ {
		r.MustInsert(value.Strs(fmt.Sprintf("e0_%d", i), "dept0"))
	}
	var counts [k]int
	for seed := uint64(0); seed < seeds; seed++ {
		idr, err := MaterializeIDBounded(r, "emp_id", []int{1}, RandomOracle{Seed: seed}, 1)
		if err != nil {
			t.Fatal(err)
		}
		counts[r.Lookup(idr.At(0)[:2])]++
	}
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - seeds/k
		chi2 += d * d / (seeds / k)
	}
	t.Logf("tid-0 counts %v, χ² = %.2f", counts, chi2)
	if chi2 >= 18.47 {
		t.Fatalf("tid-0 counts %v give χ² = %.2f at df 4, want < 18.47", counts, chi2)
	}
}

// TestPrioritySampleChangesByOneTuple inserts one member into a
// relation and checks that the bound-2 sample of the seeded oracle
// changes by at most one base tuple in and one out, and only in the
// group the member joined: every other group keeps its tuples and tids.
func TestPrioritySampleChangesByOneTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	changed := 0
	for trial := 0; trial < 200; trial++ {
		tuples := idCaseTuples(rng, 2, []int{1})
		r := FromTuples("p", 2, tuples...)
		o := RandomOracle{Seed: uint64(trial)}
		before, err := MaterializeIDBounded(r, "p_id", []int{1}, o, 2)
		if err != nil {
			t.Fatal(err)
		}
		added := value.Tuple{value.Str(fmt.Sprintf("added_%d", trial)), tuples[rng.Intn(len(tuples))][1]}
		if rng.Intn(4) == 0 {
			added[1] = value.Str("a_group_of_its_own")
		}
		r.MustInsert(added)
		after, err := MaterializeIDBounded(r, "p_id", []int{1}, o, 2)
		if err != nil {
			t.Fatal(err)
		}
		in, out := 0, 0
		for _, pair := range []struct {
			from, to *Relation
			n        *int
		}{{after, before, &in}, {before, after, &out}} {
			for _, tp := range pair.from.Tuples() {
				if !tp[1].Equal(added[1]) {
					if !pair.to.Contains(tp) {
						t.Fatalf("trial %d: %v changed outside the group %v joined", trial, tp, added)
					}
					continue
				}
				if !slices.ContainsFunc(pair.to.Tuples(), func(u value.Tuple) bool { return u[:2].Equal(tp[:2]) }) {
					*pair.n++
				}
			}
		}
		if in > 1 || out > 1 {
			t.Fatalf("trial %d: inserting %v moved %d tuples into and %d out of the bound-2 sample", trial, added, in, out)
		}
		changed += in
	}
	if changed == 0 {
		t.Fatalf("no insertion entered a sample; the test checks nothing")
	}
}

// TestSelectRanksDepthLimit drives selectRanks with tiny depth budgets,
// so the sorting fallback that bounds its worst case runs on windows of
// every size, and checks every requested rank against a full sort.
func TestSelectRanksDepthLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		ms := make([]value.Tuple, n)
		for i := range ms {
			ms[i] = value.Tuple{idValue(rng), value.Int(int64(i))}
		}
		want := slices.Clone(ms)
		slices.SortFunc(want, value.Tuple.Compare)
		var ranks []int
		for k := 0; k < n; k++ {
			if rng.Intn(n) < 3 {
				ranks = append(ranks, k)
			}
		}
		selectRanks(ms, 0, ranks, trial%4)
		for _, k := range ranks {
			if !ms[k].Equal(want[k]) {
				t.Fatalf("n=%d depth=%d: rank %d holds %v, want %v", n, trial%4, k, ms[k], want[k])
			}
		}
	}
}

// TestPriorityPinned pins priorities to the literals the priority
// oracle gave before value hashes were keyed on content, so seeded
// answers did not move when the two hash families became one.
func TestPriorityPinned(t *testing.T) {
	for _, c := range []struct {
		tup  value.Tuple
		want uint64
	}{
		{value.Tuple{value.Str("a")}, 0x1eae4f7559700dc4},
		{value.Tuple{value.Str("alice"), value.Str("bob")}, 0x44bd99475e9ec797},
		{value.Tuple{value.Str("x"), value.Int(3)}, 0x29b4e61a51683e4f},
		{value.Tuple{value.Int(3), value.Str("x")}, 0xd9f5a065b6d5fbe3},
	} {
		if got := priority(c.tup, 42); got != c.want {
			t.Errorf("priority(%v, 42) = %#x, want %#x", c.tup, got, c.want)
		}
	}
}
