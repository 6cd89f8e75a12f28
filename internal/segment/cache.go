package segment

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"idlog/internal/value"
)

// Cache is a byte-budgeted LRU over decoded segment blocks, shared by
// every segment of a database directory so the budget caps total decoded
// tuple memory, not per-file memory. It is safe for concurrent use;
// concurrent evaluations (idlogd's requests) probe frozen disk-backed
// relations from many goroutines at once. Concurrent misses on the same block may decode it
// twice (one copy wins the slot) — wasted work, never wrong results.
// A cached block is one flat value array (see decodeBlock), and the
// entry an eviction frees is reused by the next insertion, so a miss
// in a full cache allocates only what reading and decoding the block
// needs.
type Cache struct {
	mu    sync.Mutex
	max   int64
	used  int64
	lru   centry  // ring sentinel: lru.next is the most recent entry, lru.prev the least
	spare *centry // the last evicted entry, reused by the next put
	items map[ckey]*centry

	hits   atomic.Uint64
	misses atomic.Uint64
}

// ckey names one decoded block: the owning segment's process-unique id
// plus the block ordinal.
type ckey struct {
	seg   uint64
	block int
}

type centry struct {
	key        ckey
	vals       []value.Value
	bytes      int64
	prev, next *centry
}

// NewCache returns a cache that holds at most maxBytes of decoded
// blocks (see blockBytes). A non-positive budget still caches the
// single most recent block, so scans degrade to streaming rather than
// re-decoding the same block per tuple.
func NewCache(maxBytes int64) *Cache {
	c := &Cache{max: maxBytes, items: make(map[ckey]*centry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// get returns the decoded block for k, updating recency and the
// hit/miss counters.
func (c *Cache) get(k ckey) ([]value.Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		c.unlink(e)
		c.pushFront(e)
		c.hits.Add(1)
		return e.vals, true
	}
	c.misses.Add(1)
	return nil, false
}

// put inserts a freshly decoded block, evicting least-recently-used
// blocks until the budget holds. A block larger than the entire budget
// is declined outright: admitting it would evict every resident block
// and still pin used > max until an unrelated later eviction — the
// caller already holds the decoded values and streams through them
// once. Under a non-positive budget the newest block always stays, so
// scans degrade to streaming rather than re-decoding per tuple.
func (c *Cache) put(k ckey, vals []value.Value, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max > 0 && bytes > c.max {
		return
	}
	if e, ok := c.items[k]; ok {
		// Lost a concurrent decode race; keep the published copy.
		c.unlink(e)
		c.pushFront(e)
		return
	}
	e := c.spare
	if e == nil {
		e = new(centry)
	}
	c.spare = nil
	*e = centry{key: k, vals: vals, bytes: bytes}
	c.pushFront(e)
	c.items[k] = e
	c.used += bytes
	c.shrink()
}

// unlink takes e out of the recency ring. Callers must hold c.mu.
func (c *Cache) unlink(e *centry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

// pushFront makes e the most recent entry. Callers must hold c.mu.
func (c *Cache) pushFront(e *centry) {
	e.prev, e.next = &c.lru, c.lru.next
	c.lru.next.prev = e
	c.lru.next = e
}

// evict removes e from the cache and keeps it as the spare entry.
// Callers must hold c.mu.
func (c *Cache) evict(e *centry) {
	c.unlink(e)
	delete(c.items, e.key)
	c.used -= e.bytes
	*e = centry{}
	c.spare = e
}

// shrink evicts LRU blocks until the budget holds, always keeping the
// most recent block. Callers must hold c.mu.
func (c *Cache) shrink() {
	for c.used > c.max && len(c.items) > 1 {
		c.evict(c.lru.prev)
	}
}

// Resize changes the byte budget in place, evicting LRU blocks if the
// new budget is smaller than current residency. Resizing the shared
// DefaultCache is how the root API honors -cache-mb-style sizing for
// databases opened without an explicit cache.
func (c *Cache) Resize(maxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.max = maxBytes
	c.shrink()
}

// drop evicts every block of segment seg; called when a segment closes
// so a closed file's decoded blocks don't squat in the budget.
func (c *Cache) drop(seg uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.lru.next; e != &c.lru; {
		next := e.next
		if e.key.seg == seg {
			c.evict(e)
		}
		e = next
	}
}

// Stats returns the cumulative hit and miss counts; exported to the
// idlogd /metrics endpoint as idlogd_storage_cache_{hits,misses}_total.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Bytes returns the current estimated decoded bytes resident.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// blockBytes is the resident size of a decoded block of n values: one
// flat array of value.Value, nothing else per tuple.
func blockBytes(n int) int64 {
	return int64(n) * int64(unsafe.Sizeof(value.Value{}))
}

// defaultCache backs segments opened without an explicit cache.
var defaultCache = NewCache(64 << 20)

// DefaultCache returns the process-wide shared block cache (64 MiB).
func DefaultCache() *Cache { return defaultCache }

// segIDs hands out process-unique segment identities for cache keys.
var segIDs atomic.Uint64
