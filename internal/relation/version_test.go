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

// domTuple maps a byte to one of 256 distinct binary tuples.
func domTuple(a byte) value.Tuple {
	return value.Tuple{value.Int(int64(a % 16)), value.Int(int64(a / 16))}
}

// version pairs a relation under test with a plain in-memory twin that
// received the same operations (so it holds the same tuples at the same
// positions) and with the set it must hold.
type version struct {
	r, twin *Relation
	ref     map[byte]bool
}

// versionRun replays an operation stream over a chain of versions.
type versionRun struct {
	tb          testing.TB
	cur         *version
	old         []*version
	compactions int
	checks      int
}

// newVersionRun seeds the chain with a base of n distinct tuples, held
// by a source-backed relation when stored is set.
func newVersionRun(tb testing.TB, n int, stored bool) *versionRun {
	base := make([]value.Tuple, n)
	v := &version{twin: New("p", 2), ref: map[byte]bool{}}
	for i := range base {
		a := byte(i * 37)
		base[i] = domTuple(a)
		v.twin.MustInsert(base[i])
		v.ref[a] = true
	}
	if stored {
		v.r = NewStored("p", 2, sliceSource(base))
	} else {
		v.r = FromTuples("p", 2, base...)
	}
	return &versionRun{tb: tb, cur: v}
}

// step decodes and applies one operation (kind, arg).
func (vr *versionRun) step(kind, arg byte) {
	v := vr.cur
	wasVersion := v.r.base != nil
	switch kind % 16 {
	case 0, 1, 2, 3, 4, 5:
		vr.insert(arg)
	case 6, 7, 8, 9:
		vr.remove(domTuple(arg), arg)
	case 10, 11, 12:
		// Delete by position, which mostly hits base positions.
		if n := v.r.Len(); n > 0 {
			t := v.r.At(int(arg) % n)
			vr.remove(t, byte(t[0].Num+16*t[1].Num))
		}
	case 13, 14:
		vr.derive(v)
	case 15:
		if len(vr.old) > 0 {
			vr.derive(vr.old[int(arg)%len(vr.old)])
		} else {
			vr.derive(v)
		}
	}
	if wasVersion && vr.cur == v && v.r.base == nil {
		vr.compactions++
	}
}

func (vr *versionRun) insert(a byte) {
	v, t := vr.cur, domTuple(a)
	got, err := v.r.Insert(t)
	if err != nil {
		vr.tb.Fatal(err)
	}
	if want := v.twin.MustInsert(t); got != want {
		vr.tb.Fatalf("Insert(%s) = %v, twin %v", t, got, want)
	}
	v.ref[a] = true
}

func (vr *versionRun) remove(t value.Tuple, a byte) {
	v := vr.cur
	got, err := v.r.Remove(t)
	if err != nil {
		vr.tb.Fatal(err)
	}
	want, _ := v.twin.Remove(t)
	if got != want {
		vr.tb.Fatalf("Remove(%s) = %v, twin %v", t, got, want)
	}
	delete(v.ref, a)
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
	ref := make(map[byte]bool, len(from.ref))
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

var versionColSets = [][]int{{0}, {1}, {0, 1}}

// check compares one version against its twin and its reference set:
// Len, Contains/Lookup over the whole domain, Scan and At position by
// position, Probe on every column subset, and Fingerprint.
func (vr *versionRun) check(v *version) {
	tb, r, twin := vr.tb, v.r, v.twin
	vr.checks++
	if r.Len() != len(v.ref) || twin.Len() != len(v.ref) {
		tb.Fatalf("Len %d, twin %d, reference %d", r.Len(), twin.Len(), len(v.ref))
	}
	if s := r.SourceLen(); s < 0 || s > r.Len() {
		tb.Fatalf("SourceLen %d outside [0, %d]", s, r.Len())
	}
	for a := 0; a < 256; a++ {
		t := domTuple(byte(a))
		if r.Contains(t) != v.ref[byte(a)] {
			tb.Fatalf("Contains(%s) = %v, want %v", t, !v.ref[byte(a)], v.ref[byte(a)])
		}
		if got, want := r.Lookup(t), twin.Lookup(t); got != want {
			tb.Fatalf("Lookup(%s) = %d, twin %d", t, got, want)
		}
	}
	next := 0
	r.Scan(0, -1, func(pos int, t value.Tuple) bool {
		if pos != next || !t.Equal(twin.At(pos)) || !r.At(pos).Equal(t) {
			tb.Fatalf("Scan yields %s at %d (expected position %d), twin has %s", t, pos, next, twin.At(pos))
		}
		next++
		return true
	})
	if next != r.Len() {
		tb.Fatalf("Scan stopped at %d of %d", next, r.Len())
	}
	for _, cols := range versionColSets {
		for a := 0; a < 256; a++ {
			key := domTuple(byte(a)).Project(cols)
			if len(cols) == 1 && a >= 16 {
				break
			}
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
// data[0] sizes the base (odd: source-backed), then one (kind, arg)
// byte pair per operation.
func runVersionBytes(tb testing.TB, data []byte) *versionRun {
	if len(data) == 0 {
		return nil
	}
	vr := newVersionRun(tb, int(data[0]), data[0]%2 == 1)
	for i := 1; i+1 < len(data); i += 2 {
		vr.step(data[i], data[i+1])
	}
	vr.finish()
	return vr
}

// TestVersionChains runs random insert/delete/derive streams over chains
// of versions, on in-memory and source-backed bases, checking every
// version — old ones included, after newer ones were derived from them
// or from their ancestors — against a map reference and a plain twin.
func TestVersionChains(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+2*800)
		rng.Read(data)
		// Base sizes from 38 to 255 tuples, alternately source-backed
		// (odd) and in memory (even): compaction thresholds of 1 to 7
		// private positions, so an 800-op stream crosses several.
		data[0] = byte(60 + 39*seed)
		vr := runVersionBytes(t, data)
		if vr.compactions < 3 {
			t.Fatalf("seed %d: %d compactions, want ≥ 3", seed, vr.compactions)
		}
		if vr.checks < 50 {
			t.Fatalf("seed %d: only %d version checks", seed, vr.checks)
		}
	}
}

// FuzzVersions is TestVersionChains over arbitrary operation streams.
func FuzzVersions(f *testing.F) {
	f.Add([]byte{200, 0, 1, 3, 37, 6, 0, 5, 9, 6, 0, 7, 0})
	f.Add([]byte{131, 5, 0, 5, 1, 5, 2, 6, 0, 4, 74, 7, 1, 2, 255})
	f.Add([]byte{0, 0, 0, 6, 0, 3, 0, 7, 0})
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
		ref map[byte]bool
	}
	vr := newVersionRun(t, 240, false)
	var mu sync.Mutex
	pubs := []published{}
	publish := func(v *version) {
		ref := make(map[byte]bool, len(v.ref))
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
				cols := versionColSets[rng.Intn(len(versionColSets))]
				a := byte(rng.Intn(256))
				key := domTuple(a).Project(cols)
				want := 0
				for b := range p.ref {
					if domTuple(b).Project(cols).Equal(key) {
						want++
					}
				}
				if got := len(p.r.Probe(cols, key)); got != want {
					t.Errorf("Probe(%v, %s) = %d positions, want %d", cols, key, got, want)
					return
				}
				if p.r.Contains(domTuple(a)) != p.ref[a] {
					t.Errorf("Contains(%s) wrong on a published version", domTuple(a))
					return
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 400; i++ {
		v := vr.cur
		for k := 0; k < 3; k++ {
			a := byte(rng.Intn(256))
			if rng.Intn(2) == 0 {
				vr.insert(a)
			} else {
				vr.remove(domTuple(a), a)
			}
		}
		v.r.Freeze()
		publish(v)
		ref := make(map[byte]bool, len(v.ref))
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
