package relation

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"idlog/internal/symbol"
	"idlog/internal/value"
)

// distinctRef counts the distinct values of column col by their
// rendering: an independent reference for DistinctCount.
func distinctRef(r *Relation, col int) int {
	seen := map[string]bool{}
	r.Scan(0, -1, func(_ int, t value.Tuple) bool {
		seen[fmt.Sprintf("%v/%v", t[col].Sort, t[col])] = true
		return true
	})
	return len(seen)
}

// TestDistinctCountsOnlyWhereSafe: a mutable relation and a
// TupleSource-backed one do not answer; a frozen in-memory one answers
// exactly, for both sorts, with a symbol and a number of the same bits
// counted apart.
func TestDistinctCountsOnlyWhereSafe(t *testing.T) {
	r := buildEmp(70) // 70 names, 7 departments
	r.MustInsert(value.Tuple{value.Int(int64(value.Str("e001").Sym)), value.Str("d1")})
	if _, ok := r.DistinctCounts(); ok {
		t.Fatal("a mutable relation answered DistinctCounts")
	}
	if _, ok := NewStored("emp", 2, sliceSource(r.Tuples())).Freeze().DistinctCounts(); ok {
		t.Fatal("a TupleSource-backed relation answered DistinctCounts")
	}
	r.Freeze()
	ndv, ok := r.DistinctCounts()
	if !ok || fmt.Sprint(ndv) != "[71 7]" || ndv[0] != distinctRef(r, 0) || ndv[1] != distinctRef(r, 1) {
		t.Fatalf("DistinctCounts = %v, %v; want [71 7]", ndv, ok)
	}
}

// TestDistinctCountsMatchReference: dense and sparse ranges, negative
// and extreme numbers, and columns mixing both sorts count exactly.
func TestDistinctCountsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := []func(i int) value.Value{
		func(i int) value.Value { return value.Int(int64(rng.Intn(50))) },       // dense
		func(i int) value.Value { return value.Int(rng.Int63n(1<<50) - 1<<49) }, // sparse, signed
		func(i int) value.Value { return value.Int([]int64{math.MinInt64, -1, 0, math.MaxInt64}[i%4]) },
		func(i int) value.Value { return value.Str(fmt.Sprintf("v%d", rng.Intn(30))) }, // symbols
		func(i int) value.Value { // both sorts, equal bits
			if i%2 == 0 {
				return value.Int(int64(value.Str(fmt.Sprintf("v%d", i%7)).Sym))
			}
			return value.Str(fmt.Sprintf("v%d", i%7))
		},
	}
	for _, n := range []int{1, 7, 300} {
		r := New("m", len(vals))
		for i := 0; i < n; i++ {
			tup := make(value.Tuple, len(vals))
			for c, f := range vals {
				tup[c] = f(i)
			}
			r.MustInsert(tup)
		}
		ndv, ok := r.Freeze().DistinctCounts()
		if !ok {
			t.Fatal("a frozen in-memory relation did not answer")
		}
		for c := range vals {
			if ndv[c] != distinctRef(r, c) {
				t.Fatalf("%d tuples, column %d: %d distinct, reference %d", n, c, ndv[c], distinctRef(r, c))
			}
		}
	}
}

// TestDistinctCountsOncePerBase: the counts are taken once per frozen
// base. A frozen version reads its base's published counts without
// publishing its own, and a version that compacts into a flat relation
// counts itself afresh once frozen.
func TestDistinctCountsOncePerBase(t *testing.T) {
	base := buildEmp(640).Freeze()
	if ndv, _ := base.DistinctCounts(); ndv[1] != 7 {
		t.Fatalf("base departments = %d, want 7", ndv[1])
	}
	published := base.ndv.Load()

	v := base.Clone()
	v.MustInsert(value.Strs("x", "d-new")) // a private value the base lacks
	v.Freeze()
	if v.base != base {
		t.Fatal("a one-tuple version compacted")
	}
	if ndv, ok := v.DistinctCounts(); !ok || ndv[1] != 7 {
		t.Fatalf("version reads %v, %v; want its base's 7 departments", ndv, ok)
	}
	if v.ndv.Load() != nil || base.ndv.Load() != published {
		t.Fatal("reading a version's counts recounted or published a second count")
	}

	w := base.Clone()
	for i := 0; w.base != nil; i++ {
		w.MustInsert(value.Strs(fmt.Sprintf("n%d", i), fmt.Sprintf("dept%d", i)))
	}
	w.Freeze()
	if ndv, ok := w.DistinctCounts(); !ok || ndv[1] != distinctRef(w, 1) || ndv[1] <= 7 {
		t.Fatalf("compacted relation reads %v, %v; want its own %d departments", ndv, ok, distinctRef(w, 1))
	}
	if base.ndv.Load() != published {
		t.Fatal("counting a compacted relation touched its former base")
	}
}

// TestDistinctCountsConcurrentFirstReads: racing first reads, through
// the base and through its versions, agree with the reference and see
// one published count (run with -race).
func TestDistinctCountsConcurrentFirstReads(t *testing.T) {
	base := New("p", 3)
	for i := 0; i < 500; i++ {
		base.MustInsert(value.Ints(int64(i), int64(i%13), int64(i%5)))
	}
	base.Freeze()
	readers := []*Relation{base, base.Clone().Freeze(), base.Clone().Freeze()}
	got := make([][]int, 24)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], _ = readers[g%len(readers)].DistinctCounts()
		}(g)
	}
	wg.Wait()
	for g, ndv := range got {
		if fmt.Sprint(ndv) != "[500 13 5]" || &ndv[0] != &(*base.ndv.Load())[0] {
			t.Fatalf("goroutine %d read %v, not the one published [500 13 5]", g, ndv)
		}
	}
}

// TestDistinctCountsIndependentOfInterning: the counts depend on which
// symbols are equal, never on their numbers, so interning the same
// names in another order gives the same counts.
func TestDistinctCountsIndependentOfInterning(t *testing.T) {
	names := make([]string, 120)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i%40)
	}
	counts := func(order []int) string {
		tbl := symbol.NewTable()
		for _, i := range order {
			tbl.Intern(names[i])
		}
		r := New("q", 2)
		for i, n := range names {
			r.MustInsert(value.Tuple{value.Sym(tbl.Intern(n)), value.Sym(tbl.Intern(names[(i*7)%len(names)]))})
		}
		ndv, _ := r.Freeze().DistinctCounts()
		return fmt.Sprint(ndv)
	}
	for seed := int64(1); seed < 6; seed++ {
		if got := counts(rand.New(rand.NewSource(seed)).Perm(len(names))); got != "[40 40]" {
			t.Fatalf("interning order %d: counts %s, want [40 40]", seed, got)
		}
	}
}
