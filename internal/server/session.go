package server

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"idlog"
)

// session pins a named, snapshot-isolated database for a client across
// queries. The live snapshot is a frozen *idlog.Database behind an
// atomic pointer: queries load the pointer once and keep that snapshot
// for their whole run, while fact loads build the next snapshot off to
// the side (thaw, add, freeze) and swap it in. Readers never see a
// half-loaded database.
type session struct {
	name     string
	db       atomic.Pointer[idlog.Database]
	snapshot atomic.Uint64 // generation counter, bumps on every swap
	lastUsed atomic.Int64  // unix nanos of the last touch
	pins     atomic.Int64  // in-flight requests holding this session

	// mutMu serializes commits (Apply + WAL append + swap) on this
	// session; commits on different sessions proceed concurrently.
	// dropped, set under mutMu by a drop record, turns every later
	// commit on this session into a 404.
	mutMu   sync.Mutex
	dropped bool
	// viewsMu guards views: queries hold it shared while rendering view
	// relations, mutations hold it exclusively while maintaining them
	// (a view's relations are updated in place).
	viewsMu sync.RWMutex
	views   map[string]*liveView
}

// liveView is one incrementally maintained model registered on a
// session. Access is guarded by the owning session's viewsMu.
type liveView struct {
	name     string
	program  string // registered program name, or "(inline)"
	lv       *idlog.LiveView
	rebuilds uint64
}

// getView returns the named view under shared lock.
func (s *session) getView(name string) (*liveView, bool) {
	s.viewsMu.RLock()
	defer s.viewsMu.RUnlock()
	v, ok := s.views[name]
	return v, ok
}

func (s *session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// pin marks the session as held by an in-flight request: the janitor
// will not evict it however long the request runs. unpin releases the
// hold and re-touches, so the idle clock restarts only after the last
// holder finishes.
func (s *session) pin() { s.pins.Add(1) }

func (s *session) unpin() {
	s.touch()
	s.pins.Add(-1)
}

// sessionTable is the registry of live sessions plus the idle-eviction
// janitor's bookkeeping.
type sessionTable struct {
	mu       sync.Mutex
	sessions map[string]*session
	max      int
	// evict removes one idle session for evictIdle. A server commits a
	// drop record, so an eviction is as durable as a DELETE; a bare
	// table just forgets the session.
	evict func(*session) bool
}

func newSessionTable(max int) *sessionTable {
	t := &sessionTable{sessions: make(map[string]*session), max: max}
	t.evict = func(s *session) bool { return t.drop(s.name) }
	return t
}

// The refusals of sessionTable.create.
var (
	errSessionExists    = errors.New("already exists")
	errSessionTableFull = errors.New("session table full")
)

// createError maps a create refusal to its API error: a full table is
// 429 resource_exhausted, as the view table's limit is; a taken name is
// 409 already_exists.
func createError(err error) *apiError {
	if errors.Is(err, errSessionTableFull) {
		return apiErrorf(http.StatusTooManyRequests, "resource_exhausted", "%v", err)
	}
	return apiErrorf(http.StatusConflict, "already_exists", "%v", err)
}

// create registers a new session holding db (which it freezes).
func (t *sessionTable) create(name string, db *idlog.Database) (*session, error) {
	db.Freeze()
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.sessions[name]; ok {
		return nil, fmt.Errorf("session %q %w", name, errSessionExists)
	}
	if len(t.sessions) >= t.max {
		return nil, fmt.Errorf("%w (%d sessions)", errSessionTableFull, t.max)
	}
	s := newSession(name, db)
	t.sessions[name] = s
	return s, nil
}

// newSession builds a session around db without registering it (the
// base database is a session outside the table: unnamed, never
// evicted).
func newSession(name string, db *idlog.Database) *session {
	s := &session{name: name, views: map[string]*liveView{}}
	s.db.Store(db)
	s.snapshot.Store(1)
	s.touch()
	return s
}

// get returns the named session, touching it.
func (t *sessionTable) get(name string) (*session, bool) {
	t.mu.Lock()
	s, ok := t.sessions[name]
	t.mu.Unlock()
	if ok {
		s.touch()
	}
	return s, ok
}

// drop removes the named session.
func (t *sessionTable) drop(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.sessions[name]; !ok {
		return false
	}
	delete(t.sessions, name)
	return true
}

// replace swaps in other's sessions: a follower's resync, whose fresh
// table nobody else holds yet.
func (t *sessionTable) replace(other *sessionTable) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sessions = other.sessions
}

// len reports the number of live sessions.
func (t *sessionTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sessions)
}

// list snapshots the table for the sessions listing, sorted by name.
func (t *sessionTable) list() []*session {
	t.mu.Lock()
	out := make([]*session, 0, len(t.sessions))
	for _, s := range t.sessions {
		out = append(out, s)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// evictIdle evicts sessions idle longer than ttl and reports how many.
// Pinned sessions — ones a request is still evaluating against — are
// never picked, however stale their last touch: a query that outlives
// the TTL would otherwise lose its session (and its snapshot history)
// mid-flight. The evictions run outside the table lock, since a
// server's evict commits a record.
func (t *sessionTable) evictIdle(ttl time.Duration) int {
	cutoff := time.Now().Add(-ttl).UnixNano()
	var idle []*session
	t.mu.Lock()
	for _, s := range t.sessions {
		if s.pins.Load() == 0 && s.lastUsed.Load() < cutoff {
			idle = append(idle, s)
		}
	}
	t.mu.Unlock()
	n := 0
	for _, s := range idle {
		if t.evict(s) {
			n++
		}
	}
	return n
}

// info renders one session for the listing.
func (s *session) info() sessionInfo {
	db := s.db.Load()
	rels := map[string]int{}
	for _, n := range db.Names() {
		rels[n] = db.Relation(n).Len()
	}
	return sessionInfo{
		Name:      s.name,
		Relations: rels,
		IdleS:     time.Since(time.Unix(0, s.lastUsed.Load())).Seconds(),
		Snapshot:  s.snapshot.Load(),
	}
}
