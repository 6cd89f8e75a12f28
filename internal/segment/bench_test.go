package segment

import (
	"testing"

	"idlog/internal/relation"
)

// BenchmarkStoredFingerprint fingerprints a disk-backed relation of ten
// blocks through a cache that holds two, the shape of the disk engine
// over data larger than its cache.
func BenchmarkStoredFingerprint(b *testing.B) {
	path := writeSegment(b, testTuples(10*defaultBlockTuples), 2)
	cache := NewCache(blockBytes(4 * defaultBlockTuples))
	s, err := Open(path, cache)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	r := relation.NewStored("rel", 2, s).Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Fingerprint()
	}
	_, misses := cache.Stats()
	b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
}
