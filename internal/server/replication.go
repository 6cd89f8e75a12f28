package server

// Hot-standby replication, primary side. The primary keeps an
// in-memory, LSN-contiguous tail of recent WAL records (replState) and
// serves three endpoints:
//
//	GET /v1/replication/status    JSON: primary id, LSN positions,
//	                              state fingerprint
//	GET /v1/replication/snapshot  binary frame stream: one consolidated
//	                              entry per database (base + sessions)
//	                              at a consistent LSN, then EOS —
//	                              catch-up bootstrap for a follower the
//	                              log no longer covers
//	GET /v1/replication/stream?from=N
//	                              binary frame stream: entries from LSN
//	                              N onward, then live tailing with
//	                              heartbeats; ends with an EOS frame
//	                              (resumable) on drain, or a RESYNC
//	                              frame when a checkpoint truncated the
//	                              follower's position away
//
// The follower side lives in internal/replica; both share the frame
// codec in internal/wal (stream.go), so stream integrity gets the same
// CRC discipline as the on-disk log.
//
// LSN semantics: every acknowledged mutation carries one LSN, assigned
// under replState.mu in the same critical section as the WAL append,
// so LSN order == WAL file order == publication order. A follower that
// has applied LSN L holds exactly the primary's state at L (evaluation
// is deterministic, so equal EDBs mean equal models). Checkpoints
// rewrite the log as consolidation entries with fresh LSNs; state is
// preserved because consolidation entries are idempotent re-inserts.

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"idlog"
	"idlog/internal/fault"
	"idlog/internal/wal"
)

// replState is the primary's replication tail: a contiguous run of
// records [startLSN, lastLSN] kept in memory for streaming, plus the
// subscriber registry that wakes tailing streams on publication.
type replState struct {
	mu       sync.Mutex
	id       string
	startLSN uint64 // LSN of buf[0]; followers behind this must resync
	lastLSN  uint64
	buf      []wal.Record
	maxBuf   int
	subs     map[chan struct{}]struct{}
}

func newReplState(id string, maxBuf int) *replState {
	if id == "" {
		var b [8]byte
		_, _ = rand.Read(b[:])
		id = hex.EncodeToString(b[:])
	}
	return &replState{
		id:       id,
		startLSN: 1,
		subs:     map[chan struct{}]struct{}{},
		maxBuf:   maxBuf,
	}
}

// init seeds the tail after WAL replay: recs are the replayed records
// sitting on a checkpoint at baseLSN.
func (r *replState) init(baseLSN uint64, recs []wal.Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.startLSN = baseLSN + 1
	r.buf = append([]wal.Record(nil), recs...)
	r.lastLSN = baseLSN
	if len(recs) > 0 {
		r.lastLSN = recs[len(recs)-1].LSN
	}
	r.trimLocked()
}

// publishLocked appends rec (LSN already assigned) to the tail and
// wakes subscribers. Callers hold r.mu.
func (r *replState) publishLocked(rec wal.Record) {
	r.buf = append(r.buf, rec)
	r.lastLSN = rec.LSN
	r.trimLocked()
	for ch := range r.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// trimLocked bounds the in-memory tail; followers that fall behind the
// trimmed range take the snapshot path.
func (r *replState) trimLocked() {
	if r.maxBuf > 0 && len(r.buf) > r.maxBuf {
		drop := len(r.buf) - r.maxBuf
		r.startLSN = r.buf[drop].LSN
		r.buf = append([]wal.Record(nil), r.buf[drop:]...)
	}
}

// reset replaces the tail after a checkpoint at lsn with the
// consolidation records (already LSN-assigned, contiguous from lsn+1).
func (r *replState) reset(lsn uint64, recs []wal.Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.startLSN = lsn + 1
	r.buf = append([]wal.Record(nil), recs...)
	r.lastLSN = lsn
	if len(recs) > 0 {
		r.lastLSN = recs[len(recs)-1].LSN
	}
	for ch := range r.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// entriesFrom returns a copy of the tail at or after LSN from. ok is
// false when the tail no longer reaches back to from (snapshot
// needed).
func (r *replState) entriesFrom(from uint64) (recs []wal.Record, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if from < r.startLSN {
		return nil, false
	}
	for _, rec := range r.buf {
		if rec.LSN >= from {
			recs = append(recs, rec)
		}
	}
	return recs, true
}

// positions reports (startLSN, lastLSN) atomically.
func (r *replState) positions() (uint64, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.startLSN, r.lastLSN
}

func (r *replState) subscribe() (chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	r.mu.Lock()
	r.subs[ch] = struct{}{}
	r.mu.Unlock()
	return ch, func() {
		r.mu.Lock()
		delete(r.subs, ch)
		r.mu.Unlock()
	}
}

// FollowerStatus is what a replication follower publishes into its
// local server: readiness inputs for /readyz and gauges for /metrics.
type FollowerStatus struct {
	Ready         bool
	Reason        string
	Connected     bool
	PrimaryID     string
	AppliedLSN    uint64
	PrimaryLSN    uint64
	LagEntries    uint64
	LastHeartbeat time.Time
	Resyncs       uint64
	Reconnects    uint64
}

// SetFollowerProbe registers the follower's status callback. The
// server consults it on /readyz (a follower is ready only within its
// lag/lease bounds) and /metrics (replication lag gauge).
func (s *Server) SetFollowerProbe(p func() FollowerStatus) {
	s.followerProbe.Store(&p)
}

func (s *Server) followerStatus() (FollowerStatus, bool) {
	p := s.followerProbe.Load()
	if p == nil {
		return FollowerStatus{}, false
	}
	return (*p)(), true
}

// PrimaryID returns this server's replication incarnation id. A
// follower that observes the id change knows the primary lost its
// in-memory history (restart without WAL) and resyncs from a snapshot.
func (s *Server) PrimaryID() string { return s.repl.id }

// LastLSN returns the LSN of the last acknowledged (or replicated)
// mutation.
func (s *Server) LastLSN() uint64 {
	_, last := s.repl.positions()
	return last
}

// logAndPublish assigns rec its LSN, makes it durable (when a WAL is
// armed), and publishes it to the replication tail — atomically with
// respect to other mutations, so LSN order, WAL order, and publication
// order coincide. Callers hold walMu.RLock (checkpoint exclusion).
func (s *Server) logAndPublish(rec wal.Record) (uint64, error) {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	if s.wal != nil {
		lsn, err := s.wal.Append(rec)
		if err != nil {
			return 0, err
		}
		rec.LSN = lsn
	} else if rec.LSN == 0 {
		rec.LSN = s.repl.lastLSN + 1
	}
	s.repl.publishLocked(rec)
	return rec.LSN, nil
}

// StateFingerprint canonically fingerprints the full replicated state:
// the base database plus every session, every relation. Two servers
// with equal fingerprints hold byte-identical EDBs — and therefore,
// by deterministic evaluation, identical perfect models for any
// program. Callers should quiesce mutations for a stable answer.
func (s *Server) StateFingerprint() string {
	h := fnv.New64a()
	line := func(scope, pred, fp string) {
		fmt.Fprintf(h, "%s/%s=%s\n", scope, pred, fp)
	}
	dump := func(scope string, db *idlog.Database) {
		names := db.Names()
		sort.Strings(names)
		for _, n := range names {
			line(scope, n, db.Relation(n).Fingerprint())
		}
	}
	dump("", s.base.db.Load())
	for _, sess := range s.sessions.list() {
		dump(sess.name, sess.db.Load())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ApplyReplicated applies one replicated record to this server's state
// (the follower's apply path): the addressed session is created when
// missing, the mutation runs through Database.Apply and the session's
// live views are maintained incrementally, the record lands in the
// follower's own WAL when one is armed (preserving the primary's LSN),
// and the follower's replication tail is advanced — so a follower can
// itself be streamed from (chained standbys).
func (s *Server) ApplyReplicated(rec wal.Record) error {
	sess := s.base
	if rec.Session != "" {
		got, ok := s.sessions.get(rec.Session)
		if !ok {
			created, err := s.sessions.create(rec.Session, idlog.NewDatabase())
			if err != nil {
				return fmt.Errorf("replicate: create session %q: %w", rec.Session, err)
			}
			got = created
		}
		sess = got
	}
	sess.mutMu.Lock()
	defer sess.mutMu.Unlock()

	cur := sess.db.Load()
	next, delta, err := cur.Apply(rec.Inserts, rec.Deletes)
	if err != nil {
		return fmt.Errorf("replicate: apply LSN %d: %w", rec.LSN, err)
	}

	s.walMu.RLock()
	if _, err := s.logAndPublish(rec); err != nil {
		s.walMu.RUnlock()
		s.degradeWAL(err)
		return fmt.Errorf("replicate: wal append LSN %d: %w", rec.LSN, err)
	}
	sess.db.Store(next)
	sess.snapshot.Add(1)
	sess.touch()
	s.walMu.RUnlock()

	s.metrics.replApplied.Add(1)
	s.metrics.factsInserted.Add(uint64(delta.InsertCount()))
	s.metrics.factsDeleted.Add(uint64(delta.DeleteCount()))
	s.maintainViews(sess, next, delta, budget{})
	s.maybeCheckpoint()
	return nil
}

// ResetReplicatedState discards ALL local state (base and sessions)
// and installs the snapshot records as-of lsn: the follower's
// snapshot+replay bootstrap. Incremental catch-up cannot be trusted
// across a snapshot boundary — deletions that happened before the
// checkpoint are not in the log any more — so the reset is wholesale.
// When a WAL is armed the new state is immediately checkpointed, so a
// follower restart recovers to lsn without re-fetching the snapshot.
func (s *Server) ResetReplicatedState(lsn uint64, recs []wal.Record) error {
	// Build the new state off to the side first; a half-applied
	// snapshot must never become visible.
	var order []string
	byName := map[string]*idlog.Database{}
	base := idlog.NewDatabase()
	for _, rec := range recs {
		db := base
		if rec.Session != "" {
			var ok bool
			if db, ok = byName[rec.Session]; !ok {
				db = idlog.NewDatabase()
				order = append(order, rec.Session)
			}
		}
		next, _, err := db.Apply(rec.Inserts, rec.Deletes)
		if err != nil {
			return fmt.Errorf("replicate: snapshot load (session %q): %w", rec.Session, err)
		}
		if rec.Session == "" {
			base = next
		} else {
			byName[rec.Session] = next
		}
	}

	s.walMu.RLock()
	for _, sess := range s.sessions.list() {
		s.sessions.drop(sess.name)
	}
	base.Freeze()
	s.base.db.Store(base)
	s.base.snapshot.Add(1)
	for _, name := range order {
		if err := s.CreateSessionDB(name, byName[name]); err != nil {
			s.walMu.RUnlock()
			return fmt.Errorf("replicate: snapshot session %q: %w", name, err)
		}
	}
	s.repl.reset(lsn, nil)
	s.walMu.RUnlock()

	s.metrics.replResyncs.Add(1)
	if s.wal != nil {
		if err := s.Checkpoint(); err != nil {
			return fmt.Errorf("replicate: checkpoint after snapshot: %w", err)
		}
	}
	return nil
}

// snapshotRecords captures the full state as consolidation records at
// a consistent LSN: mutations are excluded by the walMu write lock for
// the duration of the (in-memory) capture, not for the send.
func (s *Server) snapshotRecords() (uint64, []wal.Record) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	_, lsn := s.repl.positions()
	var recs []wal.Record
	collect := func(name string, db *idlog.Database) {
		var facts []idlog.Fact
		names := db.Names()
		sort.Strings(names)
		for _, rn := range names {
			for _, t := range db.Relation(rn).Sorted() {
				facts = append(facts, idlog.Fact{Pred: rn, Tuple: t})
			}
		}
		// Empty sessions still emit a record so the receiver learns
		// they exist; an empty base emits nothing (it always exists).
		if len(facts) > 0 || name != "" {
			recs = append(recs, wal.Record{LSN: lsn, Session: name, Inserts: facts})
		}
	}
	collect("", s.base.db.Load())
	for _, sess := range s.sessions.list() {
		collect(sess.name, sess.db.Load())
	}
	return lsn, recs
}

// --- handlers ---

// replHeaders stamps the identity headers every replication response
// carries.
func (s *Server) replHeaders(w http.ResponseWriter, lsn uint64) {
	w.Header().Set("X-Idlog-Primary-Id", s.repl.id)
	w.Header().Set("X-Idlog-Lsn", strconv.FormatUint(lsn, 10))
}

func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	start, last := s.repl.positions()
	s.replHeaders(w, last)
	resp := map[string]any{
		"primary_id":  s.repl.id,
		"last_lsn":    last,
		"start_lsn":   start,
		"read_only":   s.cfg.ReadOnly,
		"degraded":    s.walDegraded.Load(),
		"wal":         s.wal != nil,
		"fingerprint": s.StateFingerprint(),
	}
	if fs, ok := s.followerStatus(); ok {
		resp["follower"] = map[string]any{
			"ready":       fs.Ready,
			"reason":      fs.Reason,
			"connected":   fs.Connected,
			"applied_lsn": fs.AppliedLSN,
			"primary_lsn": fs.PrimaryLSN,
			"lag_entries": fs.LagEntries,
			"resyncs":     fs.Resyncs,
			"reconnects":  fs.Reconnects,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	lsn, recs := s.snapshotRecords()
	s.replHeaders(w, lsn)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	var buf []byte
	for _, rec := range recs {
		buf = wal.AppendEntryFrame(buf[:0], rec)
		if err := s.sendFrames(w, fl, buf); err != nil {
			return
		}
	}
	buf = wal.AppendControlFrame(buf[:0], wal.FrameEOS, lsn)
	_ = s.sendFrames(w, fl, buf)
	s.metrics.replSnapshots.Add(1)
}

// sendFrames writes framed bytes through the fault points that model a
// slow primary (repl.stream.delay) and a torn connection
// (repl.stream.send — half the bytes go out, then the "connection"
// dies).
func (s *Server) sendFrames(w http.ResponseWriter, fl http.Flusher, b []byte) error {
	faults := s.cfg.Faults
	if err := faults.Hit(fault.ReplStreamDelay); err != nil {
		return err
	}
	if err := faults.Hit(fault.ReplStreamSend); err != nil {
		if len(b) > 1 {
			_, _ = w.Write(b[:len(b)/2])
			if fl != nil {
				fl.Flush()
			}
		}
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	if fl != nil {
		fl.Flush()
	}
	return nil
}

func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	fromStr := r.URL.Query().Get("from")
	from, err := strconv.ParseUint(fromStr, 10, 64)
	if err != nil || from == 0 {
		writeError(w, apiErrorf(http.StatusBadRequest, "invalid_argument", "bad from LSN %q", fromStr))
		return
	}
	start, last := s.repl.positions()
	if from < start {
		e := apiErrorf(http.StatusConflict, "snapshot_required",
			"LSN %d predates the replication tail (starts at %d); take /v1/replication/snapshot", from, start)
		s.replHeaders(w, last)
		writeError(w, e)
		return
	}

	sub, unsub := s.repl.subscribe()
	defer unsub()

	s.replHeaders(w, last)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	if fl != nil {
		fl.Flush()
	}
	s.metrics.replStreams.Add(1)
	defer s.metrics.replStreams.Add(-1)

	hb := s.cfg.ReplHeartbeat
	ticker := time.NewTicker(hb)
	defer ticker.Stop()

	// Open with a heartbeat: a follower's lease starts at its first
	// frame, not at connect, so a primary that accepts connections but
	// stalls every frame never looks live.
	buf := wal.AppendControlFrame(nil, wal.FrameHeartbeat, last)
	if err := s.sendFrames(w, fl, buf); err != nil {
		return
	}

	next := from
	for {
		recs, ok := s.repl.entriesFrom(next)
		if !ok {
			// A checkpoint truncated the follower's position away while
			// it streamed: tell it to resync and end cleanly.
			st, _ := s.repl.positions()
			buf = wal.AppendControlFrame(buf[:0], wal.FrameResync, st)
			_ = s.sendFrames(w, fl, buf)
			return
		}
		for _, rec := range recs {
			buf = wal.AppendEntryFrame(buf[:0], rec)
			if err := s.sendFrames(w, fl, buf); err != nil {
				return
			}
			next = rec.LSN + 1
			s.metrics.replShipped.Add(1)
		}
		select {
		case <-sub:
		case <-ticker.C:
			_, lastNow := s.repl.positions()
			buf = wal.AppendControlFrame(buf[:0], wal.FrameHeartbeat, lastNow)
			if err := s.sendFrames(w, fl, buf); err != nil {
				return
			}
		case <-s.drainCh:
			// Graceful drain: end the stream with a resumable position
			// instead of hanging http.Server.Shutdown until the timeout.
			_, lastNow := s.repl.positions()
			buf = wal.AppendControlFrame(buf[:0], wal.FrameEOS, lastNow)
			_ = s.sendFrames(w, fl, buf)
			return
		case <-r.Context().Done():
			return
		}
	}
}
