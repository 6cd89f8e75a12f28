package segment

import (
	"testing"

	"idlog/internal/value"
)

// blocks returns the number of cached blocks.
func blocks(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func cput(c *Cache, seg uint64, block int, bytes int64) {
	c.put(ckey{seg: seg, block: block}, []value.Value{}, bytes)
}

// An oversized block (larger than the entire budget) must be declined,
// not admitted-and-pinned: the old eviction loop kept the newest block
// unconditionally, so one oversized put evicted every resident block and
// left used > max indefinitely.
func TestCacheDeclinesOversizedBlock(t *testing.T) {
	c := NewCache(100)
	cput(c, 1, 0, 40)
	cput(c, 1, 1, 40)
	if got := c.Bytes(); got != 80 {
		t.Fatalf("Bytes()=%d after two fitting puts, want 80", got)
	}
	cput(c, 2, 0, 500) // oversized: must be declined
	if got := c.Bytes(); got > 100 {
		t.Fatalf("Bytes()=%d > max after oversized put", got)
	}
	if got := blocks(c); got != 2 {
		t.Fatalf("Blocks()=%d after oversized put, want 2 (resident blocks untouched)", got)
	}
	if _, ok := c.get(ckey{seg: 2, block: 0}); ok {
		t.Fatal("oversized block was admitted")
	}
	if _, ok := c.get(ckey{seg: 1, block: 1}); !ok {
		t.Fatal("fitting block evicted by a declined oversized put")
	}
	// A non-positive budget still caches the single newest block (scan
	// streaming), oversized or not.
	s := NewCache(0)
	cput(s, 1, 0, 500)
	if got := blocks(s); got != 1 {
		t.Fatalf("zero-budget cache holds %d blocks, want 1", got)
	}
	cput(s, 1, 1, 700)
	if got := blocks(s); got != 1 {
		t.Fatalf("zero-budget cache holds %d blocks after second put, want 1", got)
	}
	if _, ok := s.get(ckey{seg: 1, block: 1}); !ok {
		t.Fatal("zero-budget cache dropped the newest block")
	}
}

func TestCacheResize(t *testing.T) {
	c := NewCache(1000)
	for i := 0; i < 10; i++ {
		cput(c, 1, i, 100)
	}
	if got := c.Bytes(); got != 1000 {
		t.Fatalf("Bytes()=%d, want 1000", got)
	}
	c.Resize(250)
	if got := c.Bytes(); got > 250 {
		t.Fatalf("Bytes()=%d > 250 after shrink", got)
	}
	// The survivors are the most recently used blocks.
	for i := 8; i < 10; i++ {
		if _, ok := c.get(ckey{seg: 1, block: i}); !ok {
			t.Fatalf("block %d evicted by Resize, want MRU survivors kept", i)
		}
	}
	c.Resize(10_000)
	for i := 0; i < 20; i++ {
		cput(c, 2, i, 100)
	}
	if got := c.Bytes(); got != 2200 {
		t.Fatalf("Bytes()=%d after growth, want 2200", got)
	}
}
