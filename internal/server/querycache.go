package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"idlog"
)

// queryCache is the server's prepared-query machinery: an LRU of parsed
// ad-hoc source programs (so POST /v1/query with an inline source does
// not re-parse and re-analyze on every request) and an LRU of
// PreparedQuery values keyed by (program identity, goal) — each of
// which carries its own engine plan cache, so a repeated goal against
// an unchanged database skips parse, compile, and stratum planning
// entirely.
type queryCache struct {
	programs *lru[string, *idlog.Program]
	prepared *lru[preparedKey, *idlog.PreparedQuery]
}

type preparedKey struct {
	prog string // "p:<name>" for registered programs, "s:<hash>" for ad-hoc sources
	goal string
}

const (
	maxCachedPrograms = 64
	maxCachedPrepared = 256
)

func newQueryCache() *queryCache {
	return &queryCache{
		programs: newLRU[string, *idlog.Program](maxCachedPrograms),
		prepared: newLRU[preparedKey, *idlog.PreparedQuery](maxCachedPrepared),
	}
}

// sourceKey identifies an ad-hoc program text.
func sourceKey(src string) string {
	h := sha256.Sum256([]byte(src))
	return "s:" + hex.EncodeToString(h[:16])
}

// parsedProgram resolves src through the program LRU. The key is
// returned for prepared-query lookups downstream.
func (s *Server) parsedProgram(src string) (*idlog.Program, string, error) {
	key := sourceKey(src)
	if p, ok := s.queries.programs.get(key); ok {
		return p, key, nil
	}
	p, err := idlog.Parse(src)
	if err != nil {
		return nil, "", err
	}
	s.queries.programs.put(key, p)
	return p, key, nil
}

// preparedQuery resolves (progKey, goal) through the prepared LRU,
// preparing and caching on miss.
func (s *Server) preparedQuery(progKey string, prog *idlog.Program, goal string) (*idlog.PreparedQuery, error) {
	key := preparedKey{prog: progKey, goal: goal}
	if pq, ok := s.queries.prepared.get(key); ok {
		s.metrics.planCacheHits.Add(1)
		return pq, nil
	}
	s.metrics.planCacheMisses.Add(1)
	pq, err := prog.Prepare(goal)
	if err != nil {
		return nil, err
	}
	s.queries.prepared.put(key, pq)
	return pq, nil
}

// lru is a minimal mutex-guarded LRU map used for the server's program
// and prepared-query caches. Values must be immutable or internally
// synchronized (both cached types are safe for concurrent use).
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	items map[K]*list.Element
	order *list.List // front = most recently used
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{cap: capacity, items: map[K]*list.Element{}, order: list.New()}
}

func (l *lru[K, V]) get(k K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

func (l *lru[K, V]) put(k K, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[k]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		l.order.MoveToFront(el)
		return
	}
	l.items[k] = l.order.PushFront(&lruEntry[K, V]{key: k, val: v})
	for l.order.Len() > l.cap {
		last := l.order.Back()
		l.order.Remove(last)
		delete(l.items, last.Value.(*lruEntry[K, V]).key)
	}
}

func (l *lru[K, V]) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Len()
}
