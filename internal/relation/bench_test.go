package relation

import (
	"fmt"
	"testing"

	"idlog/internal/value"
)

func benchRelation(n int) *Relation {
	r := New("bench", 3)
	for i := 0; i < n; i++ {
		r.MustInsert(value.Tuple{
			value.Int(int64(i)),
			value.Str(fmt.Sprintf("g%d", i%16)),
			value.Int(int64(i % 7)),
		})
	}
	return r
}

func BenchmarkInsert(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := New("t", 2)
		for j := 0; j < 1000; j++ {
			r.MustInsert(value.Ints(int64(j), int64(j%10)))
		}
	}
}

func BenchmarkInsertDuplicates(b *testing.B) {
	r := New("t", 2)
	for j := 0; j < 1000; j++ {
		r.MustInsert(value.Ints(int64(j), int64(j%10)))
	}
	t := value.Ints(500, 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if added, _ := r.Insert(t); added {
			b.Fatalf("duplicate inserted")
		}
	}
}

func BenchmarkContains(b *testing.B) {
	r := benchRelation(10000)
	probe := value.Tuple{value.Int(5000), value.Str("g8"), value.Int(2)}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Contains(probe)
	}
}

func BenchmarkProbeIndexed(b *testing.B) {
	r := benchRelation(10000)
	key := value.Tuple{value.Str("g3")}
	r.Probe([]int{1}, key) // build index outside the loop
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := r.Probe([]int{1}, key); len(got) == 0 {
			b.Fatalf("empty probe")
		}
	}
}

// BenchmarkMaterializeID has batch_idlit's shape: 50 groups of 100
// under the seeded oracle, whole and bounded at 1 and 2 (the
// Theorem-2 choice and colouring guesses, and the sample of two).
func BenchmarkMaterializeID(b *testing.B) {
	r := idlitRelation(50, 100)
	for _, c := range []struct {
		name   string
		oracle Oracle
		bound  int
	}{
		{"sorted", SortedOracle{}, 0},
		{"random", RandomOracle{Seed: 1}, 0},
		{"random-bound1", RandomOracle{Seed: 1}, 1},
		{"random-bound2", RandomOracle{Seed: 1}, 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MaterializeIDBounded(r, "id", []int{1}, c.oracle, c.bound); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkString renders 5 000 u-constants, the size of a CLI answer:
// sorting them compares symbol names, two symbol-table reads each.
func BenchmarkString(b *testing.B) {
	r := New("reach", 1)
	for i := 0; i < 5000; i++ {
		r.MustInsert(value.Tuple{value.Str(fmt.Sprintf("n%d", i*7919%5000))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.String()
	}
}

func BenchmarkFingerprint(b *testing.B) {
	r := benchRelation(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Fingerprint()
	}
}
