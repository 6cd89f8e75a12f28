package relation

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"idlog/internal/value"
)

// sliceSource is an in-memory TupleSource standing in for a disk
// segment, so the version tests cover source-backed relations too.
type sliceSource []value.Tuple

func (s sliceSource) Len() int             { return len(s) }
func (s sliceSource) At(i int) value.Tuple { return s[i] }
func (s sliceSource) HashAt(i int) uint64  { return s[i].Hash() }
func (s sliceSource) Scan(lo, hi int, fn func(int, value.Tuple) bool) bool {
	for i := lo; i < hi; i++ {
		if !fn(i, s[i]) {
			return false
		}
	}
	return true
}

// domain is the tuple universe of a version run: size distinct tuples
// of one arity, numbered 0..size-1 (arity 0 has only the empty tuple).
type domain struct{ arity, size int }

// newDomain gives every arity but 0 512 tuples, so a relation can
// cross the arena's chunk boundary at position 256.
func newDomain(arity int) domain {
	if arity == 0 {
		return domain{0, 1}
	}
	return domain{arity, 512}
}

// tuple returns tuple number a (mod size).
func (d domain) tuple(a int) value.Tuple {
	a %= d.size
	switch d.arity {
	case 0:
		return value.Tuple{}
	case 1:
		return value.Ints(int64(a))
	case 2:
		return value.Ints(int64(a%16), int64(a/16))
	default:
		return value.Ints(int64(a%8), int64(a/8%8), int64(a/64))
	}
}

// number inverts tuple.
func (d domain) number(t value.Tuple) int {
	switch d.arity {
	case 0:
		return 0
	case 1:
		return int(t[0].Num)
	case 2:
		return int(t[0].Num + 16*t[1].Num)
	default:
		return int(t[0].Num + 8*t[1].Num + 64*t[2].Num)
	}
}

// keys returns the distinct projections of the domain onto cols.
func (d domain) keys(cols []int) []value.Tuple {
	var keys []value.Tuple
	seen := map[uint64]bool{}
	for a := 0; a < d.size; a++ {
		if key := d.tuple(a).Project(cols); !seen[key.Hash()] {
			seen[key.Hash()] = true
			keys = append(keys, key)
		}
	}
	return keys
}

// colSets are the probe column sets checked at each arity.
func (d domain) colSets() [][]int {
	return [][][]int{nil, {{0}}, {{0}, {1}, {0, 1}}, {{0}, {2}, {0, 1}, {1, 2}, {0, 1, 2}}}[d.arity]
}

// version pairs a relation under test with a plain in-memory twin that
// received the same operations (so it holds the same tuples at the same
// positions) and with the set it must hold.
type version struct {
	r, twin *Relation
	ref     map[int]bool
}

// versionRun replays an operation stream over a chain of versions.
type versionRun struct {
	tb          testing.TB
	dom         domain
	keys        [][]value.Tuple // per column set, the domain's distinct keys
	cur         *version
	old         []*version
	compactions int
	checks      int
	// minLen and maxLen bound the lengths the current version took
	// after the base was built.
	minLen, maxLen int
}

// newVersionRun seeds the chain with a base of n distinct tuples of the
// given arity (n at most the domain's size), held by a source-backed
// relation when stored is set.
func newVersionRun(tb testing.TB, arity, n int, stored bool) *versionRun {
	dom := newDomain(arity)
	n = min(n, dom.size)
	base := make([]value.Tuple, n)
	v := &version{twin: New("p", arity), ref: map[int]bool{}}
	for i := range base {
		a := i * 37 % dom.size
		base[i] = dom.tuple(a)
		v.twin.MustInsert(base[i])
		v.ref[a] = true
	}
	if stored {
		v.r = NewStored("p", arity, sliceSource(base))
	} else {
		v.r = FromTuples("p", arity, base...)
	}
	vr := &versionRun{tb: tb, dom: dom, cur: v, minLen: n, maxLen: n}
	for _, cols := range dom.colSets() {
		vr.keys = append(vr.keys, dom.keys(cols))
	}
	return vr
}

// step decodes and applies one operation (kind, arg): kind's low four
// bits pick the operation and its fifth bit is the ninth bit of the
// tuple number arg.
func (vr *versionRun) step(kind, arg byte) {
	v := vr.cur
	a := int(arg) | int(kind>>4&1)<<8
	wasVersion := v.r.base != nil
	switch kind % 16 {
	case 0, 1, 2, 3, 4, 5:
		vr.insert(a)
	case 6, 7, 8, 9:
		vr.remove(vr.dom.tuple(a))
	case 10, 11, 12:
		// Delete by position, which mostly hits base positions. The
		// view is cloned: Remove overwrites the slot it reads.
		if n := v.r.Len(); n > 0 {
			vr.remove(v.r.At(a % n).Clone())
		}
	case 13, 14:
		vr.derive(v)
	case 15:
		if len(vr.old) > 0 {
			vr.derive(vr.old[a%len(vr.old)])
		} else {
			vr.derive(v)
		}
	}
	if wasVersion && vr.cur == v && v.r.base == nil {
		vr.compactions++
	}
	vr.minLen, vr.maxLen = min(vr.minLen, vr.cur.r.Len()), max(vr.maxLen, vr.cur.r.Len())
}

func (vr *versionRun) insert(a int) {
	v, t := vr.cur, vr.dom.tuple(a)
	got, err := v.r.Insert(t)
	if err != nil {
		vr.tb.Fatal(err)
	}
	if want := v.twin.MustInsert(t); got != want {
		vr.tb.Fatalf("Insert(%s) = %v, twin %v", t, got, want)
	}
	v.ref[a%vr.dom.size] = true
}

func (vr *versionRun) remove(t value.Tuple) {
	v := vr.cur
	got, err := v.r.Remove(t)
	if err != nil {
		vr.tb.Fatal(err)
	}
	want, _ := v.twin.Remove(t)
	if got != want {
		vr.tb.Fatalf("Remove(%s) = %v, twin %v", t, got, want)
	}
	delete(v.ref, vr.dom.number(t))
	if v.r.Len() != v.twin.Len() || v.r.Contains(t) {
		vr.tb.Fatalf("after Remove(%s): Len %d (twin %d), Contains %v", t, v.r.Len(), v.twin.Len(), v.r.Contains(t))
	}
}

// derive freezes the current version, keeps it, and continues on a
// fresh version cloned from from (the current one, or an older one).
// It checks the version just frozen and the one derived from, and every
// eighth derive all kept versions: deriving must leave them untouched.
func (vr *versionRun) derive(from *version) {
	vr.cur.r.Freeze()
	vr.old = append(vr.old, vr.cur)
	ref := make(map[int]bool, len(from.ref))
	for a := range from.ref {
		ref[a] = true
	}
	vr.cur = &version{r: from.r.Clone(), twin: from.twin.DeepClone(), ref: ref}
	if b := vr.cur.r.base; b != nil && b.base != nil {
		vr.tb.Fatal("a version's base is itself a version")
	}
	if len(vr.old)%8 == 0 {
		for _, v := range vr.old {
			vr.check(v)
		}
		return
	}
	vr.check(vr.old[len(vr.old)-1])
	vr.check(from)
}

// finish freezes the current version and checks every version.
func (vr *versionRun) finish() {
	vr.cur.r.Freeze()
	vr.old = append(vr.old, vr.cur)
	for _, v := range vr.old {
		vr.check(v)
	}
}

// check compares one version against its twin and its reference set:
// Len, Contains/Lookup over the whole domain, Scan and At position by
// position, Probe on every column set for every key, and Fingerprint.
func (vr *versionRun) check(v *version) {
	tb, r, twin := vr.tb, v.r, v.twin
	vr.checks++
	if r.Len() != len(v.ref) || twin.Len() != len(v.ref) {
		tb.Fatalf("Len %d, twin %d, reference %d", r.Len(), twin.Len(), len(v.ref))
	}
	if s := r.SourceLen(); s < 0 || s > r.Len() {
		tb.Fatalf("SourceLen %d outside [0, %d]", s, r.Len())
	}
	for a := 0; a < vr.dom.size; a++ {
		t := vr.dom.tuple(a)
		if r.Contains(t) != v.ref[a] {
			tb.Fatalf("Contains(%s) = %v, want %v", t, !v.ref[a], v.ref[a])
		}
		if got, want := r.Lookup(t), twin.Lookup(t); got != want {
			tb.Fatalf("Lookup(%s) = %d, twin %d", t, got, want)
		}
	}
	next := 0
	r.Scan(0, -1, func(pos int, t value.Tuple) bool {
		if pos != next || !t.Equal(twin.At(pos)) || !r.At(pos).Equal(t) || len(t) != vr.dom.arity || cap(t) != len(t) {
			tb.Fatalf("Scan yields %s at %d (expected position %d), twin has %s", t, pos, next, twin.At(pos))
		}
		next++
		return true
	})
	if next != r.Len() {
		tb.Fatalf("Scan stopped at %d of %d", next, r.Len())
	}
	for k, cols := range vr.dom.colSets() {
		for _, key := range vr.keys[k] {
			got := append([]int(nil), r.Probe(cols, key)...)
			want := append([]int(nil), twin.Probe(cols, key)...)
			sort.Ints(got)
			sort.Ints(want)
			if len(got) != len(want) {
				tb.Fatalf("Probe(%v, %s) = %v, twin %v", cols, key, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					tb.Fatalf("Probe(%v, %s) = %v, twin %v", cols, key, got, want)
				}
			}
		}
	}
	if r.Fingerprint() != twin.Fingerprint() {
		tb.Fatal("Fingerprint differs from the twin's")
	}
}

// runVersionBytes decodes data into a base and an operation stream:
// data[0] picks the arity (low two bits) and a source-backed base (bit
// 2), data[1] and bit 3 of data[0] size the base (0..511 tuples), then
// one (kind, arg) byte pair per operation.
func runVersionBytes(tb testing.TB, data []byte) *versionRun {
	if len(data) < 2 {
		return nil
	}
	n := 2*int(data[1]) + int(data[0]>>3&1)
	vr := newVersionRun(tb, int(data[0]&3), n, data[0]&4 != 0)
	for i := 2; i+1 < len(data); i += 2 {
		vr.step(data[i], data[i+1])
	}
	vr.finish()
	return vr
}

// versionBytes encodes a run header for runVersionBytes.
func versionBytes(arity, n int, stored bool) []byte {
	h := byte(arity) | byte(n&1)<<3
	if stored {
		h |= 4
	}
	return []byte{h, byte(n / 2)}
}

// TestVersionChains runs random insert/delete/derive streams over chains
// of versions, on in-memory and source-backed bases of arities 0 to 3,
// checking every version — old ones included, after newer ones were
// derived from them or from their ancestors — against a map reference
// and a plain twin. The base sizes sit at the arena's edges: around 16,
// where chunk 0 first grows, and around 256, the first chunk boundary.
// Small bases grow past 16, large ones shrink past 257, 256 and 255.
func TestVersionChains(t *testing.T) {
	seed := int64(0)
	for arity := 0; arity <= 3; arity++ {
		sizes := []int{15, 16, 255, 256, 257}
		if arity == 0 {
			sizes = []int{0, 1}
		}
		for _, n := range sizes {
			for _, stored := range []bool{false, true} {
				seed++
				rng := rand.New(rand.NewSource(seed))
				ops := make([]byte, 2*400)
				rng.Read(ops)
				vr := runVersionBytes(t, append(versionBytes(arity, n, stored), ops...))
				if arity > 0 && vr.compactions < 3 {
					t.Fatalf("arity %d, base %d: %d compactions, want ≥ 3", arity, n, vr.compactions)
				}
				if vr.checks < 50 {
					t.Fatalf("arity %d, base %d: only %d version checks", arity, n, vr.checks)
				}
				switch {
				case arity > 0 && n <= 16 && vr.maxLen <= 16:
					t.Fatalf("arity %d, base %d: never grew past 16 tuples", arity, n)
				case n >= 255 && vr.minLen >= 255:
					t.Fatalf("arity %d, base %d: never shrank below 255 tuples", arity, n)
				}
			}
		}
	}
}

// FuzzVersions is TestVersionChains over arbitrary operation streams.
func FuzzVersions(f *testing.F) {
	f.Add([]byte{2, 100, 0, 1, 3, 37, 6, 0, 5, 9, 6, 0, 7, 0})
	f.Add([]byte{6, 65, 5, 0, 5, 1, 5, 2, 6, 0, 4, 74, 7, 1, 2, 255})
	f.Add([]byte{2, 0, 0, 0, 6, 0, 3, 0, 7, 0})
	f.Add(append(versionBytes(0, 1, false), 0, 0, 13, 0, 6, 0, 0, 0, 15, 0))
	f.Add(append(versionBytes(1, 15, true), 0, 1, 0, 2, 16, 3, 13, 0, 0, 4, 10, 0))
	f.Add(append(versionBytes(3, 257, false), 13, 0, 10, 0, 10, 1, 0, 200, 14, 0, 10, 255))
	f.Add(append(versionBytes(2, 256, true), 0, 9, 6, 0, 22, 255, 13, 0, 10, 17))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		runVersionBytes(t, data)
	})
}

// TestVersionsConcurrentReaders probes frozen versions from several
// goroutines while a writer keeps deriving, mutating and freezing newer
// versions of the same base — the idlogd shape, where readers hold old
// snapshots while writes publish new ones. Run under -race: the shared
// base's lazy index builds and the versions' own builds must publish
// safely.
func TestVersionsConcurrentReaders(t *testing.T) {
	type published struct {
		r   *Relation
		ref map[int]bool
	}
	vr := newVersionRun(t, 2, 240, false)
	var mu sync.Mutex
	pubs := []published{}
	publish := func(v *version) {
		ref := make(map[int]bool, len(v.ref))
		for a := range v.ref {
			ref[a] = true
		}
		mu.Lock()
		pubs = append(pubs, published{v.r, ref})
		mu.Unlock()
	}
	vr.cur.r.Freeze()
	publish(vr.cur)
	vr.cur = &version{r: vr.cur.r.Clone(), twin: vr.cur.twin.DeepClone(), ref: vr.cur.ref}

	var done atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for !done.Load() {
				mu.Lock()
				p := pubs[rng.Intn(len(pubs))]
				mu.Unlock()
				sets := vr.dom.colSets()
				cols := sets[rng.Intn(len(sets))]
				a := rng.Intn(vr.dom.size)
				key := vr.dom.tuple(a).Project(cols)
				want := 0
				for b := range p.ref {
					if vr.dom.tuple(b).Project(cols).Equal(key) {
						want++
					}
				}
				if got := len(p.r.Probe(cols, key)); got != want {
					t.Errorf("Probe(%v, %s) = %d positions, want %d", cols, key, got, want)
					return
				}
				if p.r.Contains(vr.dom.tuple(a)) != p.ref[a] {
					t.Errorf("Contains(%s) wrong on a published version", vr.dom.tuple(a))
					return
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 400; i++ {
		v := vr.cur
		for k := 0; k < 3; k++ {
			a := rng.Intn(vr.dom.size)
			if rng.Intn(2) == 0 {
				vr.insert(a)
			} else {
				vr.remove(vr.dom.tuple(a))
			}
		}
		v.r.Freeze()
		publish(v)
		ref := make(map[int]bool, len(v.ref))
		for a := range v.ref {
			ref[a] = true
		}
		vr.cur = &version{r: v.r.Clone(), twin: v.twin.DeepClone(), ref: ref}
	}
	done.Store(true)
	wg.Wait()
}

// TestCloneOfDeltaPanics: a delta relation has no primary table, so a
// clone of it would silently report every tuple absent.
func TestCloneOfDeltaPanics(t *testing.T) {
	d := NewDelta("d", 1, 0)
	d.Append(value.Tuple{value.Int(1)})
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of an append-only delta relation did not panic")
		}
	}()
	d.Clone()
}

// TestVersionSharesBaseIndexes: deriving a version of a frozen, indexed
// relation and changing a few tuples builds no index over the base's
// tuples; the version's probes read the base's published indexes.
func TestVersionSharesBaseIndexes(t *testing.T) {
	base := New("e", 2)
	for i := 0; i < 1000; i++ {
		base.MustInsert(value.Tuple{value.Int(int64(i % 50)), value.Int(int64(i))})
	}
	base.Freeze()
	base.Probe([]int{0}, value.Tuple{value.Int(7)})
	before := IndexedTuplesTotal()
	v := base.Clone()
	if _, err := v.Remove(value.Tuple{value.Int(7), value.Int(7)}); err != nil {
		t.Fatal(err)
	}
	v.MustInsert(value.Tuple{value.Int(7), value.Int(5000)})
	v.Freeze()
	got := v.ProbeTuples([]int{0}, value.Tuple{value.Int(7)})
	if len(got) != 20 {
		t.Fatalf("probe on the version found %d tuples, want 20", len(got))
	}
	// The private part is the moved last tuple (patched into the removed
	// one's position) plus the one overlay insert.
	if n := IndexedTuplesTotal() - before; n != 2 {
		t.Fatalf("version indexed %d tuples, want its 2 private positions", n)
	}
	if base.Len() != 1000 || !base.Contains(value.Tuple{value.Int(7), value.Int(7)}) {
		t.Fatal("mutating the version changed its base")
	}
}
