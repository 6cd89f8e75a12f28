package server

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"idlog"
	"idlog/internal/storage"
	"idlog/internal/wal"
)

// This file is the durable-mutation path: Database.Apply on a session's
// snapshot, write-ahead logging with fsync-before-acknowledge,
// incremental maintenance of the session's live views, periodic
// checkpoint-and-truncate, and WAL replay on restart.
//
// Ordering invariant: a mutation is (1) validated and applied into a
// NEW snapshot (invisible), (2) appended to the WAL and fsynced,
// (3) swapped in and acknowledged. A crash before (2) loses an
// unacknowledged request; a crash after (2) replays the mutation on
// restart. Steps (2)+(3) run under the checkpoint read-lock so a
// concurrent checkpoint can never persist a snapshot that misses a
// logged-but-unswapped mutation.

// SetWAL arms write-ahead logging: every acknowledged mutation is
// appended (and fsynced) before its snapshot becomes visible. Call
// before serving traffic, after replaying the log.
func (s *Server) SetWAL(l *wal.Log) { s.wal = l }

// OpenWAL is the full durable-startup recipe used by cmd/idlogd: load
// the checkpoint state into the base database when it exists
// (superseding any -load seed installed earlier), open the log at path
// — creating it, or truncating a torn tail left by a crash — replay
// every intact entry, and arm logging for new mutations.
//
// The checkpoint lives in <path>.snapshot with the in-memory engine, or
// in the disk engine's segment data directory (Config.Engine.Dir) —
// where the base EDB then stays disk-resident behind the block cache,
// with only the replayed WAL tail held in memory.
func (s *Server) OpenWAL(path string) error {
	db, err := s.loadCheckpoint(path)
	switch {
	case err == nil:
		s.SetBaseDB(db)
	case errors.Is(err, os.ErrNotExist):
		// First boot (or never checkpointed): replay starts from the
		// current base.
	default:
		return fmt.Errorf("wal snapshot: %w", err)
	}
	l, recs, err := wal.Open(path)
	if err != nil {
		return err
	}
	if err := s.Replay(recs); err != nil {
		l.Close()
		return err
	}
	l.SetFaults(s.cfg.Faults)
	s.SetWAL(l)
	s.repl.init(l.BaseLSN(), recs)
	return nil
}

// LoadDiskBase installs the disk engine's data directory as the base
// database; a missing directory (first boot, nothing bulk-loaded yet)
// is not an error. cmd/idlogd calls it when the disk engine runs
// without a WAL; with one, OpenWAL performs the same load plus tail
// replay.
func (s *Server) LoadDiskBase() error {
	if !s.cfg.Engine.Disk() {
		return nil
	}
	db, err := storage.OpenDir(s.cfg.Engine.Dir, s.cfg.Engine.Cache())
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	s.SetBaseDB(db)
	return nil
}

// loadCheckpoint reads the last checkpoint for the configured engine.
func (s *Server) loadCheckpoint(walPath string) (*idlog.Database, error) {
	if s.cfg.Engine.Disk() {
		return storage.OpenDir(s.cfg.Engine.Dir, s.cfg.Engine.Cache())
	}
	return idlog.LoadSnapshot(walPath + ".snapshot")
}

// saveCheckpoint durably writes the base snapshot for the configured
// engine: a new segment-file generation in the data directory (disk),
// or a single <wal>.snapshot file (mem). Both are atomic at the
// manifest/rename level, so a crash mid-checkpoint keeps the previous
// one intact.
func (s *Server) saveCheckpoint(db *idlog.Database) error {
	if s.cfg.Engine.Disk() {
		return storage.WriteDir(s.cfg.Engine.Dir, db)
	}
	return idlog.SaveSnapshot(s.wal.Path()+".snapshot", db)
}

// ErrWALDegraded marks a server whose WAL refused an append (fsync
// failure, disk full): it can no longer back acknowledgments with
// durability, so it acknowledges nothing — mutations get 503 until the
// operator repairs storage and restarts.
var ErrWALDegraded = errors.New("wal degraded: mutations refused until restart")

// degradeWAL flips the server into degraded (read-only) mode after a
// WAL append failure. The flip is sticky: a log that failed one fsync
// may hold torn state, and only a reopen (restart) re-validates it.
func (s *Server) degradeWAL(err error) {
	msg := err.Error()
	s.walDegradedMsg.Store(&msg)
	if !s.walDegraded.Swap(true) {
		s.metrics.walDegradedEvents.Add(1)
	}
}

// degradedError is the uniform 503 for mutations refused in degraded
// mode; Retry-After tells well-behaved clients to back off.
func degradedError(err error) *apiError {
	e := apiErrorf(http.StatusServiceUnavailable, "wal_degraded",
		"%v: %v", ErrWALDegraded, err)
	e.retryAfter = 5
	return e
}

// mutable reports whether this server may accept client mutations:
// followers are read-only by configuration, degraded primaries by
// storage failure.
func (s *Server) mutable() *apiError {
	if s.cfg.ReadOnly {
		return apiErrorf(http.StatusForbidden, "read_only",
			"server is a read-only replica; mutate the primary")
	}
	if s.walDegraded.Load() {
		msg := "wal append failed"
		if m := s.walDegradedMsg.Load(); m != nil {
			msg = *m
		}
		return degradedError(errors.New(msg))
	}
	return nil
}

// WAL returns the armed log, if any.
func (s *Server) WAL() *wal.Log { return s.wal }

// SetBaseDB installs db (frozen) as the base database served to
// queries that name no session and mutated by POST /v1/facts.
func (s *Server) SetBaseDB(db *idlog.Database) {
	db.Freeze()
	s.base.db.Store(db)
}

// BaseDB returns the current base snapshot.
func (s *Server) BaseDB() *idlog.Database { return s.base.db.Load() }

// Replay applies WAL records (as returned by wal.Open) to the server's
// state: records with an empty session address the base database,
// others their named session, which is created when missing. Called on
// startup before SetWAL and before serving.
func (s *Server) Replay(recs []wal.Record) error {
	for i, rec := range recs {
		sess := s.base
		if rec.Session != "" {
			got, ok := s.sessions.get(rec.Session)
			if !ok {
				created, err := s.sessions.create(rec.Session, idlog.NewDatabase())
				if err != nil {
					return fmt.Errorf("wal replay: recreate session %q: %w", rec.Session, err)
				}
				got = created
			}
			sess = got
		}
		cur := sess.db.Load()
		next, _, err := cur.Apply(rec.Inserts, rec.Deletes)
		if err != nil {
			return fmt.Errorf("wal replay: entry %d (session %q): %w", i, rec.Session, err)
		}
		sess.db.Store(next)
		sess.snapshot.Add(1)
	}
	return nil
}

// applyMutation runs one mutation batch against sess under the
// session's mutation lock. bud bounds the incremental view maintenance.
func (s *Server) applyMutation(sess *session, inserts, deletes []idlog.Fact, bud budget) (*mutateResponse, *apiError) {
	start := time.Now()
	sess.mutMu.Lock()
	defer sess.mutMu.Unlock()

	cur := sess.db.Load()
	next, delta, err := cur.Apply(inserts, deletes)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, "invalid_argument", "%v", err)
	}

	// Durability before visibility: fsync the WAL entry, then swap. The
	// read-lock spans both so a checkpoint (write-lock) sees either
	// neither or both of {WAL entry, snapshot}. A failed append is NEVER
	// acknowledged: the snapshot is discarded, the server flips degraded
	// (sticky read-only), and the client gets a typed 503 — an ack the
	// log cannot back would be a durability lie.
	s.walMu.RLock()
	if _, err := s.logAndPublish(wal.Record{Session: sess.name, Inserts: inserts, Deletes: deletes}); err != nil {
		s.walMu.RUnlock()
		s.degradeWAL(err)
		return nil, degradedError(err)
	}
	if s.wal != nil {
		s.metrics.walAppends.Add(1)
	}
	sess.db.Store(next)
	sess.snapshot.Add(1)
	sess.touch()
	s.walMu.RUnlock()

	s.metrics.factsInserted.Add(uint64(delta.InsertCount()))
	s.metrics.factsDeleted.Add(uint64(delta.DeleteCount()))

	resp := &mutateResponse{
		Session:  sess.name,
		Snapshot: sess.snapshot.Load(),
		Inserted: delta.InsertCount(),
		Deleted:  delta.DeleteCount(),
		Views:    s.maintainViews(sess, next, delta, bud),
	}
	s.maybeCheckpoint()
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return resp, nil
}

// maintainViews advances every live view of sess to the new snapshot.
// A view whose incremental update fails (budget, staleness) is rebuilt
// from scratch; a view whose rebuild also fails is dropped. Mutations
// hold the views write-lock, so queries never observe a half-updated
// view.
func (s *Server) maintainViews(sess *session, db *idlog.Database, delta *idlog.Delta, bud budget) []viewUpdateJSON {
	sess.viewsMu.Lock()
	defer sess.viewsMu.Unlock()
	if len(sess.views) == 0 {
		return nil
	}
	names := make([]string, 0, len(sess.views))
	for name := range sess.views {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]viewUpdateJSON, 0, len(names))
	for _, name := range names {
		v := sess.views[name]
		up, err := v.lv.Advance(db, delta, bud.options()...)
		vu := viewUpdateJSON{Name: name, UpdateStats: up}
		if err != nil {
			vu.Error = err.Error()
			if rerr := v.lv.Rebuild(db); rerr != nil {
				delete(sess.views, name)
				vu.Dropped = true
				vu.Error = fmt.Sprintf("%v; rebuild: %v", err, rerr)
			} else {
				v.rebuilds++
				vu.Rebuilt = true
				s.metrics.viewRebuilds.Add(1)
			}
		}
		s.metrics.factsOverdeleted.Add(uint64(up.Overdeleted))
		s.metrics.factsRederived.Add(uint64(up.Rederived))
		out = append(out, vu)
	}
	return out
}

// maybeCheckpoint triggers a checkpoint when the WAL has grown past the
// configured entry threshold. Failures are counted and retried on the
// next mutation; the WAL keeps accumulating until one succeeds, so no
// durability is lost.
func (s *Server) maybeCheckpoint() {
	if s.wal == nil || s.cfg.WALCheckpointEntries <= 0 {
		return
	}
	if s.wal.Entries() < s.cfg.WALCheckpointEntries {
		return
	}
	if err := s.Checkpoint(); err != nil {
		s.metrics.walCheckpointErrors.Add(1)
	}
}

// Checkpoint makes the WAL short again without losing durability: the
// base snapshot is durably written to <wal>.snapshot (write-to-temp,
// rename), and the log is atomically REWRITTEN (temp + fsync + rename)
// to hold one consolidated entry per live session. The rewrite replaces
// the old truncate-then-reappend sequence, which had a crash window
// between the truncate and the re-appends where acknowledged session
// facts existed nowhere durable. On restart the snapshot plus the
// rewritten log reproduce exactly the pre-checkpoint state.
//
// The new log starts at the pre-checkpoint last LSN, so consolidation
// entries get fresh, larger LSNs and the replication tail stays
// monotonic; followers mid-stream are told to resync (their position
// predates the rewritten tail), and the consolidation entries they then
// apply are idempotent re-inserts.
func (s *Server) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if err := s.saveCheckpoint(s.base.db.Load()); err != nil {
		return fmt.Errorf("checkpoint: snapshot: %w", err)
	}
	var recs []wal.Record
	for _, sess := range s.sessions.list() {
		db := sess.db.Load()
		var facts []idlog.Fact
		names := db.Names()
		sort.Strings(names)
		for _, name := range names {
			for _, t := range db.Relation(name).Sorted() {
				facts = append(facts, idlog.Fact{Pred: name, Tuple: t})
			}
		}
		// A factless session still gets a record: its existence must
		// survive the rewrite, or a restart would lose the session.
		recs = append(recs, wal.Record{Session: sess.name, Inserts: facts})
	}
	last := s.wal.LastLSN()
	if _, replLast := s.repl.positions(); replLast > last {
		last = replLast
	}
	if s.cfg.ReadOnly {
		// Follower: the primary owns the LSN space, so a local
		// checkpoint must NOT mint LSNs above the applied position —
		// they would overtake the primary and make the follower skip
		// real entries after a restart. Rebase the consolidation BELOW
		// the position instead: entries get (last-k, last], the log's
		// last LSN stays equal to the applied position, and restart
		// replay recovers both state and position exactly.
		k := uint64(len(recs))
		if k > last {
			return nil // degenerate; keep the log as is
		}
		if _, err := s.wal.ResetWith(last-k, recs); err != nil {
			return fmt.Errorf("checkpoint: rewrite log: %w", err)
		}
		s.repl.reset(last, nil)
	} else {
		out, err := s.wal.ResetWith(last, recs)
		if err != nil {
			return fmt.Errorf("checkpoint: rewrite log: %w", err)
		}
		s.repl.reset(last, out)
	}
	s.metrics.walCheckpoints.Add(1)
	return nil
}

// parseMutation decodes the textual insert/delete fact lists of a
// factsRequest (Facts is a legacy alias for Inserts).
func parseMutation(req *factsRequest) (ins, dels []idlog.Fact, e *apiError) {
	if req.Facts != "" {
		fs, err := idlog.ParseFacts(req.Facts)
		if err != nil {
			return nil, nil, fromEngineError(err)
		}
		ins = append(ins, fs...)
	}
	if req.Inserts != "" {
		fs, err := idlog.ParseFacts(req.Inserts)
		if err != nil {
			return nil, nil, fromEngineError(err)
		}
		ins = append(ins, fs...)
	}
	if req.Deletes != "" {
		fs, err := idlog.ParseFacts(req.Deletes)
		if err != nil {
			return nil, nil, fromEngineError(err)
		}
		dels = append(dels, fs...)
	}
	if len(ins) == 0 && len(dels) == 0 {
		return nil, nil, apiErrorf(http.StatusBadRequest, "invalid_argument", "no facts to insert or delete")
	}
	return ins, dels, nil
}

// handleBaseFacts mutates the base database: POST /v1/facts.
func (s *Server) handleBaseFacts(w http.ResponseWriter, r *http.Request) {
	var req factsRequest
	if e := decode(r, &req); e != nil {
		writeError(w, e)
		return
	}
	s.mutateAndRespond(w, r, s.base, &req)
}

// handleSessionFacts mutates a named session: POST
// /v1/sessions/{name}/facts. Insert-only bodies using the legacy
// {"facts": "..."} shape keep working.
func (s *Server) handleSessionFacts(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req factsRequest
	if e := decode(r, &req); e != nil {
		writeError(w, e)
		return
	}
	sess, ok := s.sessions.get(name)
	if !ok {
		writeError(w, apiErrorf(http.StatusNotFound, "not_found", "session %q not found", name))
		return
	}
	sess.pin()
	defer sess.unpin()
	s.mutateAndRespond(w, r, sess, &req)
}

// mutateAndRespond is the shared tail of the two facts endpoints:
// parse, budget, admit, apply, respond. Followers (ReadOnly) and
// degraded primaries refuse up front.
func (s *Server) mutateAndRespond(w http.ResponseWriter, r *http.Request, sess *session, req *factsRequest) {
	if e := s.mutable(); e != nil {
		writeError(w, e)
		return
	}
	ins, dels, e := parseMutation(req)
	if e != nil {
		writeError(w, e)
		return
	}
	bud, e := s.parseBudget(req.budgetFields)
	if e != nil {
		writeError(w, e)
		return
	}
	release, e := s.admit(r)
	if e != nil {
		writeError(w, e)
		return
	}
	defer release()
	resp, e := s.applyMutation(sess, ins, dels, bud)
	if e != nil {
		writeError(w, e)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleViewCreate registers a live view on a session: POST
// /v1/sessions/{name}/views.
func (s *Server) handleViewCreate(w http.ResponseWriter, r *http.Request) {
	sessName := r.PathValue("name")
	var req viewRequest
	if e := decode(r, &req); e != nil {
		writeError(w, e)
		return
	}
	if req.Name == "" {
		writeError(w, apiErrorf(http.StatusBadRequest, "invalid_argument", "name is required"))
		return
	}
	if (req.Program == "") == (req.Source == "") {
		writeError(w, apiErrorf(http.StatusBadRequest, "invalid_argument", "exactly one of program or source is required"))
		return
	}
	bud, e := s.parseBudget(req.budgetFields)
	if e != nil {
		writeError(w, e)
		return
	}
	var prog *idlog.Program
	progName := "(inline)"
	if req.Program != "" {
		p, e := s.lookupProgram(req.Program)
		if e != nil {
			writeError(w, e)
			return
		}
		prog, progName = p.prog, p.name
	} else {
		parsed, err := idlog.Parse(req.Source)
		if err != nil {
			writeError(w, fromEngineError(err))
			return
		}
		prog = parsed
	}
	sess, ok := s.sessions.get(sessName)
	if !ok {
		writeError(w, apiErrorf(http.StatusNotFound, "not_found", "session %q not found", sessName))
		return
	}
	sess.pin()
	defer sess.unpin()

	release, e := s.admit(r)
	if e != nil {
		writeError(w, e)
		return
	}
	defer release()

	opts := bud.options()
	if req.Seed != nil {
		opts = append(opts, idlog.WithSeed(*req.Seed))
	}
	// Serialize against mutations so the view's initial model matches a
	// definite snapshot generation.
	sess.mutMu.Lock()
	defer sess.mutMu.Unlock()
	sess.viewsMu.Lock()
	defer sess.viewsMu.Unlock()
	if _, dup := sess.views[req.Name]; dup {
		writeError(w, apiErrorf(http.StatusConflict, "already_exists", "view %q already exists on session %q", req.Name, sessName))
		return
	}
	if len(sess.views) >= s.cfg.MaxViews {
		writeError(w, apiErrorf(http.StatusTooManyRequests, "resource_exhausted", "view table full (%d views)", s.cfg.MaxViews))
		return
	}
	lv, err := prog.NewLiveView(sess.db.Load(), opts...)
	if err != nil {
		writeError(w, fromEngineError(err))
		return
	}
	v := &liveView{name: req.Name, program: progName, lv: lv}
	sess.views[req.Name] = v
	writeJSON(w, http.StatusOK, describeView(v))
}

// handleViewList lists a session's live views: GET
// /v1/sessions/{name}/views.
func (s *Server) handleViewList(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("name"))
	if !ok {
		writeError(w, apiErrorf(http.StatusNotFound, "not_found", "session %q not found", r.PathValue("name")))
		return
	}
	sess.viewsMu.RLock()
	infos := make([]viewInfo, 0, len(sess.views))
	for _, v := range sess.views {
		infos = append(infos, describeView(v))
	}
	sess.viewsMu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"views": infos})
}

// describeView renders one view's info; callers hold viewsMu.
func describeView(v *liveView) viewInfo {
	rels := map[string]int{}
	for _, name := range v.lv.Relations() {
		rels[name] = v.lv.Relation(name).Len()
	}
	return viewInfo{
		Name:      v.name,
		Program:   v.program,
		Relations: rels,
		Updates:   v.lv.TotalUpdates(),
		Rebuilds:  v.rebuilds,
	}
}

// serveViewQuery answers a query addressed at a live view: relations
// come straight from the maintained model, no evaluation runs.
func (s *Server) serveViewQuery(w http.ResponseWriter, req *queryRequest) {
	if req.Session == "" || len(req.Predicates) == 0 {
		writeError(w, apiErrorf(http.StatusBadRequest, "invalid_argument", "view queries require session and predicates"))
		return
	}
	if req.Program != "" || req.Source != "" || req.Goal != "" || req.Facts != "" {
		writeError(w, apiErrorf(http.StatusBadRequest, "invalid_argument", "view queries take no program, source, goal, or facts"))
		return
	}
	sess, ok := s.sessions.get(req.Session)
	if !ok {
		writeError(w, apiErrorf(http.StatusNotFound, "not_found", "session %q not found", req.Session))
		return
	}
	sess.pin()
	defer sess.unpin()
	v, ok := sess.getView(req.View)
	if !ok {
		writeError(w, apiErrorf(http.StatusNotFound, "not_found", "view %q not found on session %q", req.View, req.Session))
		return
	}
	start := time.Now()
	sess.viewsMu.RLock()
	defer sess.viewsMu.RUnlock()
	resp := &queryResponse{Relations: map[string]relationJSON{}}
	for _, p := range req.Predicates {
		rel := v.lv.Relation(p)
		if rel == nil {
			writeError(w, apiErrorf(http.StatusBadRequest, "invalid_argument", "unknown predicate %q", p))
			return
		}
		resp.Relations[p] = relationBody(rel)
		s.metrics.observePredicate(p, rel.Len())
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}
